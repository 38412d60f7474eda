package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/marshal"
	"scsq/internal/rp"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// This file is the data-plane performance harness: microbenchmarks of the
// real code paths that dominate engine wall-clock — the marshal → flush →
// carrier byte path and vtime reservation bookkeeping. `cmd/scsq-bench
// -perf` runs them and emits BENCH_dataplane.json so the allocation and
// throughput trajectory is tracked across PRs. The same workloads are
// exposed as `go test -bench` benchmarks in dataplane_bench_test.go.

// PerfResult is one measured data-plane microbenchmark.
type PerfResult struct {
	Name string `json:"name"`
	// Iterations is the benchmark's op count (testing.B.N).
	Iterations int `json:"iterations"`
	// NsPerOp is wall-clock nanoseconds per operation. For the
	// vtime/resource-use entries an operation is a single reservation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// MBPerSec is payload throughput, where the workload has a byte volume.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
}

// PerfReport is the BENCH_dataplane.json document.
type PerfReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and CPUModel identify the host the numbers were taken on:
	// speedup ratios on a single-core container mean something different
	// than on a 32-way box.
	GOMAXPROCS int          `json:"gomaxprocs"`
	CPUModel   string       `json:"cpu_model,omitempty"`
	Results    []PerfResult `json:"results"`
}

// NewPerfReport returns a report with the host/toolchain header populated.
func NewPerfReport() PerfReport {
	return PerfReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name from /proc/cpuinfo (Linux).
// Empty when unavailable; the field is informational only.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// perfArrayElems is the array workload of the marshal benchmarks:
// 16 Ki float64 = 128 KiB per element, two MPI buffers' worth at the
// engine's default 64 KiB.
const perfArrayElems = 16 << 10

// framingBufSizes and framingElemBytes span the regime the paper's MPI
// sweep runs the sender and receiver drivers in (Figures 6 and 8): buffers
// from 100 B through the 1000 B optimum and the 64 KiB default to 1 MB,
// against 1 KB, 300 KB and 3 MB arrays. A per-frame cost that grows with
// element size over buffer size only shows in the small-buffer, large-array
// corner.
var (
	framingBufSizes  = []int{100, 1000, 64 << 10, 1_000_000}
	framingElemBytes = []int{1_000, 300_000, 3_000_000}
)

// framingCell names one cell of the framing grid, e.g. "buf=100/elem=300KB".
func framingCell(bufBytes, elemBytes int) string {
	elem := fmt.Sprintf("%dKB", elemBytes/1000)
	if elemBytes >= 1_000_000 {
		elem = fmt.Sprintf("%dMB", elemBytes/1_000_000)
	}
	return fmt.Sprintf("buf=%d/elem=%s", bufBytes, elem)
}

// perfArray returns an array whose float data is n bytes long.
func perfArray(n int) []float64 {
	arr := make([]float64, n/8)
	for i := range arr {
		arr[i] = float64(i)
	}
	return arr
}

// discardConn is a carrier that consumes frames like a receiver driver
// (recycling pooled payloads) without charging a hardware model.
type discardConn struct {
	free vtime.Time
}

var _ carrier.Conn = (*discardConn)(nil)

func (c *discardConn) Send(f carrier.Frame) (vtime.Time, error) {
	carrier.Recycle(&f)
	c.free = f.Ready
	return c.free, nil
}

func (c *discardConn) Close() error { return nil }

// result converts a testing.BenchmarkResult, normalizing per-op figures by
// opsPerIter inner operations per measured iteration.
func result(name string, r testing.BenchmarkResult, opsPerIter int, bytesPerOp int64) PerfResult {
	ops := float64(r.N) * float64(opsPerIter)
	pr := PerfResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / ops,
		AllocsPerOp: float64(r.MemAllocs) / ops,
		BytesPerOp:  float64(r.MemBytes) / ops,
	}
	if bytesPerOp > 0 && r.T > 0 {
		pr.MBPerSec = float64(bytesPerOp) * ops / r.T.Seconds() / 1e6
	}
	return pr
}

// MarshalArrayLoop encodes arr into a reused buffer n times; the shared
// body of BenchmarkMarshalArray and RunPerf.
func MarshalArrayLoop(arr []float64, n int) error {
	var v any = arr // box once; Append(..., arr) would allocate per call
	size, err := marshal.Size(v)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, size)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		if buf, err = marshal.Append(buf, v); err != nil {
			return err
		}
	}
	return nil
}

// EncodeAligned marshals arr so the element bytes after the 1-byte tag and
// 4-byte length land 8-byte aligned, the layout DecodeBorrowed can alias.
// (A value at offset 0 of an allocation has a misaligned payload, so
// borrowing there falls back to a copy.)
func EncodeAligned(arr []float64) ([]byte, error) {
	size, err := marshal.Size(arr)
	if err != nil {
		return nil, err
	}
	buf, err := marshal.Append(make([]byte, 3, 3+size), arr)
	if err != nil {
		return nil, err
	}
	return buf[3:], nil
}

// DecodeArrayLoop decodes the encoding of an array n times, either
// materializing or borrowing.
func DecodeArrayLoop(encoded []byte, n int, borrowed bool) error {
	for i := 0; i < n; i++ {
		var err error
		if borrowed {
			_, _, err = marshal.DecodeBorrowed(encoded)
		} else {
			_, _, err = marshal.Decode(encoded)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SenderFlushLoop pushes n array elements through a sender driver into a
// discarding carrier; the shared body of BenchmarkSenderFlush and RunPerf.
func SenderFlushLoop(arr []float64, bufBytes, n int) error {
	cfg := rp.SenderConfig{
		BufBytes:       bufBytes,
		Mode:           carrier.DoubleBuffered,
		MarshalPerByte: 0.001,
	}
	_, _, err := rp.PushElements("perf", &discardConn{}, cfg, sqep.Element{Value: arr}, n)
	return err
}

// ReceiverReassemblyLoop feeds n copies of the encoding of arr, cut into
// bufBytes frames, through one receiver driver and decodes them: the
// per-producer reassembly path every MPI frame of Figures 6 and 8 takes.
func ReceiverReassemblyLoop(arr []float64, bufBytes, n int) error {
	encoded, err := marshal.Append(nil, arr)
	if err != nil {
		return err
	}
	inbox := make(carrier.Inbox, 64)
	go func() {
		defer close(inbox)
		for i := 0; i < n; i++ {
			for off := 0; off < len(encoded); off += bufBytes {
				end := min(off+bufBytes, len(encoded))
				inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "perf", Payload: encoded[off:end]}}
			}
		}
		inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "perf", Last: true}}
	}()
	// The engine's default kernel batch.
	r := rp.NewReceiver(inbox, rp.ReceiverConfig{Producers: 1, BatchFrames: 16})
	defer r.Close()
	for got := 0; ; got++ {
		_, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			if got != n {
				return fmt.Errorf("receiver decoded %d elements, want %d", got, n)
			}
			return nil
		}
	}
}

// ResourceUseLoop issues n reservations against a fresh resource in the
// pattern that made the pre-pruning busy list quadratic: a front that
// advances leaving small unusable gaps, plus a fully lagged straggler
// (ready=0) every 16th request, which — without a prune floor — linearly
// scans every consumed gap since virtual time zero.
func ResourceUseLoop(n int) {
	r := vtime.NewResource("perf")
	const (
		step    = 100 * vtime.Microsecond
		service = 50 * vtime.Microsecond
		probe   = 60 * vtime.Microsecond // > the 50 µs gaps: never backfills
	)
	t := vtime.Time(0)
	for i := 0; i < n; i++ {
		if i%16 == 15 {
			r.Use(0, probe)
		} else {
			t = t.Add(step)
			r.Use(t, service)
		}
	}
}

// RunPerf measures the data-plane microbenchmarks and returns the report
// written to BENCH_dataplane.json by `cmd/scsq-bench -perf`.
func RunPerf() (PerfReport, error) {
	arr := perfArray(8 * perfArrayElems)
	arrBytes := int64(8 * len(arr))
	encoded, err := EncodeAligned(arr)
	if err != nil {
		return PerfReport{}, err
	}

	report := NewPerfReport()
	var benchErr error
	bench := func(name string, opsPerIter int, bytesPerOp int64, fn func(b *testing.B)) {
		if benchErr != nil {
			return
		}
		r := testing.Benchmark(fn)
		report.Results = append(report.Results, result(name, r, opsPerIter, bytesPerOp))
	}

	bench("marshal/encode-array-128k", 1, arrBytes, func(b *testing.B) {
		b.ReportAllocs()
		if err := MarshalArrayLoop(arr, b.N); err != nil {
			benchErr = err
		}
	})
	bench("marshal/decode-array-128k", 1, arrBytes, func(b *testing.B) {
		b.ReportAllocs()
		if err := DecodeArrayLoop(encoded, b.N, false); err != nil {
			benchErr = err
		}
	})
	bench("marshal/decode-array-128k-borrowed", 1, arrBytes, func(b *testing.B) {
		b.ReportAllocs()
		if err := DecodeArrayLoop(encoded, b.N, true); err != nil {
			benchErr = err
		}
	})
	for _, loop := range []struct {
		name string
		run  func(arr []float64, bufBytes, n int) error
	}{
		{"rp/sender-flush/", SenderFlushLoop},
		{"rp/receiver-reassembly/", ReceiverReassemblyLoop},
	} {
		for _, buf := range framingBufSizes {
			for _, elemBytes := range framingElemBytes {
				elem := perfArray(elemBytes)
				bench(loop.name+framingCell(buf, elemBytes), 1, int64(8*len(elem)), func(b *testing.B) {
					b.ReportAllocs()
					if err := loop.run(elem, buf, b.N); err != nil {
						benchErr = err
					}
				})
			}
		}
	}
	for _, n := range []int{10_000, 100_000} {
		n := n
		bench(fmt.Sprintf("vtime/resource-use/n=%d", n), n, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ResourceUseLoop(n)
			}
		})
	}
	if benchErr != nil {
		return PerfReport{}, benchErr
	}
	return report, nil
}

// WritePerfJSON emits the report as indented JSON (BENCH_dataplane.json).
func WritePerfJSON(w io.Writer, r PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WritePerf renders the report as a text table.
func WritePerf(w io.Writer, r PerfReport) error {
	return writePerfTable(w, "Data-plane microbenchmarks", r)
}

// writePerfTable renders any PerfReport-shaped result set under a title.
func writePerfTable(w io.Writer, title string, r PerfReport) error {
	host := fmt.Sprintf("%s %s/%s gomaxprocs=%d", r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS)
	if r.CPUModel != "" {
		host += " cpu=" + r.CPUModel
	}
	if _, err := fmt.Fprintf(w, "%s (%s)\n", title, host); err != nil {
		return err
	}
	for _, res := range r.Results {
		line := fmt.Sprintf("%-46s %12.1f ns/op %10.2f allocs/op %12.1f B/op",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		if res.MBPerSec > 0 {
			line += fmt.Sprintf(" %10.0f MB/s", res.MBPerSec)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
