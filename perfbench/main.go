// Command perfbench is SCSQ's benchmark: a load generator outside the
// program that drives the paper's stream queries through SCSQ's public
// entry points, checks every result, and prints the measured metrics.
//
//	bash perfbench/run.sh --workload mpi-sweep --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	mpi-sweep    Figures 6 and 8 (intra-BlueGene MPI streaming) over the
//	             100 B – 1 MB buffer sweep, through scsql + core.Engine.
//	tcp-inbound  Figure 15 (back-end → BlueGene TCP), Queries 1–6 × n = 1…8.
//	wire-mix     an open loop of seeded Poisson arrivals of catalog reads and
//	             small paper queries over two client connections to an
//	             in-process scsq-server, then a closed loop for capacity.
//
// With --trace 0 the run measures the end-to-end metrics untraced; with
// --trace 1 it records spans around every call into a layer, replays the
// run's traffic shape through each layer's public functions, and reports
// the per-layer metrics. The last line of standard output is the JSON
// result; the lines before it describe the host and the run. Spans and the
// full report go to .bench_build/ under the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds spans and reports, relative to the working directory.
const outDir = ".bench_build"

// config is one run's command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run measured.
type report struct {
	Tally   tally
	Correct bool
	Metrics map[string]metric
	// Notes are run facts that are not metrics: sample counts, rates,
	// layers the workload does not reach, validity of the generator.
	Notes map[string]any
	// Invalid, when set, means the harness itself misbehaved and the
	// numbers must not be used.
	Invalid string
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, Notes: map[string]any{}, Correct: true}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// unmeasured records a per-layer metric the workload gives no sample for:
// its value is 0 and the header names it.
func (r *report) unmeasured(name, unit, why string) {
	r.set(name, unit, 0)
	u, _ := r.Notes["unmeasured"].(map[string]string)
	if u == nil {
		u = map[string]string{}
		r.Notes["unmeasured"] = u
	}
	u[name] = why
}

var workloads = map[string]func(config) (*report, error){
	"mpi-sweep":   runMPISweep,
	"tcp-inbound": runTCPInbound,
	"wire-mix":    runWireMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var writeRef string
	fs.StringVar(&cfg.Workload, "workload", "", "workload: mpi-sweep, tcp-inbound or wire-mix")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&writeRef, "write-reference", "", "run every figure point once and write the virtual-time reference to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {mpi-sweep,tcp-inbound,wire-mix}, --seconds > 0, --trace {0,1}\n")
		return 2
	}
	cfg.Trace = trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	start := time.Now()
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Notes["wall_s"] = time.Since(start).Seconds()
	if rep.Invalid != "" {
		fmt.Fprintln(stderr, "perfbench: run invalid:", rep.Invalid)
		return 3
	}
	if err := checkFinite(rep.Metrics); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	hdr := header(cfg)
	full := map[string]any{"header": hdr, "notes": rep.Notes, "metrics": rep.Metrics,
		"attempted": rep.Tally.Attempted, "failed": rep.Tally.Failed, "correct": rep.Correct}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, trace)
	if err := writeJSON(filepath.Join(outDir, name), full); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, part := range []struct {
		tag string
		v   any
	}{{"header", hdr}, {"notes", rep.Notes}} {
		b, err := json.Marshal(part.v)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %s %s\n", part.tag, b)
	}
	for _, n := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Tally.Attempted, rep.Tally.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func checkFinite(ms map[string]metric) error {
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return nil
}

// header identifies the code, toolchain and host the numbers came from.
func header(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":     commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

// rssWindow measures the peak resident set of a stretch of the run: open
// resets the kernel's high-water mark, peak reads it. Reporting the median
// of per-pass peaks, not the peak of the whole run, keeps one badly timed
// garbage collection from setting the figure.
type rssWindow struct{}

func (rssWindow) open() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peak returns VmHWM, the peak resident set since the window opened, in MB.
func (rssWindow) peak() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil || kb <= 0 {
				return 0, fmt.Errorf("VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
