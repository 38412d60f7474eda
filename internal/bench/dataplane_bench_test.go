package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// The data-plane microbenchmarks of the zero-copy byte path. Run with
//
//	go test ./internal/bench -bench 'MarshalArray|SenderFlush|ReceiverReassembly|ResourceUse' -benchmem
//
// BenchmarkMarshalArray and BenchmarkSenderFlush must stay allocation-free
// in steady state (the pre-pooling flush path allocated a frame buffer per
// flush); BenchmarkSenderFlush and BenchmarkReceiverReassembly must cost
// time linear in element size at every buffer size (the sender once slid
// the unflushed tail down per frame, S²/(2B) bytes for an S-byte element);
// BenchmarkResourceUse must stay sub-quadratic in reservation count (the
// pre-pruning busy list scanned every consumed gap since virtual time zero
// for lagging requests).

func BenchmarkMarshalArray(b *testing.B) {
	arr := perfArray(8 * perfArrayElems)
	b.SetBytes(int64(8 * len(arr)))
	b.ReportAllocs()
	if err := MarshalArrayLoop(arr, b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMarshalDecodeArray(b *testing.B) {
	encoded, err := EncodeAligned(perfArray(8 * perfArrayElems))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * perfArrayElems))
	b.ReportAllocs()
	if err := DecodeArrayLoop(encoded, b.N, false); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMarshalDecodeArrayBorrowed(b *testing.B) {
	encoded, err := EncodeAligned(perfArray(8 * perfArrayElems))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * perfArrayElems))
	b.ReportAllocs()
	if err := DecodeArrayLoop(encoded, b.N, true); err != nil {
		b.Fatal(err)
	}
}

// benchFraming runs loop over the framingBufSizes × framingElemBytes grid,
// one element per op.
func benchFraming(b *testing.B, loop func(arr []float64, bufBytes, n int) error) {
	for _, buf := range framingBufSizes {
		for _, elemBytes := range framingElemBytes {
			arr := perfArray(elemBytes)
			b.Run(framingCell(buf, elemBytes), func(b *testing.B) {
				b.SetBytes(int64(8 * len(arr)))
				b.ReportAllocs()
				if err := loop(arr, buf, b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

func BenchmarkSenderFlush(b *testing.B) { benchFraming(b, SenderFlushLoop) }

func BenchmarkReceiverReassembly(b *testing.B) { benchFraming(b, ReceiverReassemblyLoop) }

func BenchmarkResourceUse(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ResourceUseLoop(n)
			}
		})
	}
}

// TestPerfReportShape runs a trivial marshal loop through the report
// plumbing so -perf output stays well-formed without paying full benchmark
// time in the unit-test suite.
func TestPerfReportShape(t *testing.T) {
	r := PerfReport{GoVersion: "go-test", GOOS: "linux", GOARCH: "amd64",
		Results: []PerfResult{{Name: "x", Iterations: 1, NsPerOp: 2, MBPerSec: 3}}}
	var sbJSON, sbText strings.Builder
	if err := WritePerfJSON(&sbJSON, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbJSON.String(), `"ns_per_op"`) {
		t.Errorf("JSON missing ns_per_op: %s", sbJSON.String())
	}
	var back PerfReport
	if err := json.Unmarshal([]byte(sbJSON.String()), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if err := WritePerf(&sbText, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbText.String(), "MB/s") {
		t.Errorf("text table missing throughput column: %s", sbText.String())
	}
}
