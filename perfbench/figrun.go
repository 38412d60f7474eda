package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"scsq/internal/scsql"
)

// setupRounds is how often a run times its set-up before each untraced
// pass; it reports the median of all of them, spread over the run.
const setupRounds = 11

func runMPISweep(cfg config) (*report, error) {
	warm := point{Key: "warm-up", Figure: "fig6", Stmt: scsql.Figure5Query(30_000, 2), Want: 2, buf: 1000}
	return runFigures(cfg, mpiDeck(), warm)
}

func runTCPInbound(cfg config) (*report, error) {
	deck, err := tcpDeck()
	if err != nil {
		return nil, err
	}
	stmt, err := scsql.InboundQuery(1, 1, 30_000, 2)
	if err != nil {
		return nil, err
	}
	warm := point{Key: "warm-up", Figure: "fig15", Stmt: stmt, Want: 2, costScale: 0.01}
	return runFigures(cfg, deck, warm)
}

// passResult is one pass over a figure deck.
type passResult struct {
	Wall   time.Duration
	Points []pointRun
}

// figureRun accumulates the passes of a figure workload and checks every
// point against the reference.
type figureRun struct {
	ref     reference
	deck    []point
	rep     *report
	drifted map[string]bool
	maxDev  map[string]float64
}

// pass runs the deck once. Points run one after another: a closed loop in
// which each point is due the moment the previous one finished.
func (f *figureRun) pass(tr *tracer) passResult {
	sp := tr.begin("pass", noParent, "")
	defer tr.end(sp)
	res := passResult{Points: make([]pointRun, len(f.deck))}
	t0 := time.Now()
	for i, p := range f.deck {
		r := runPoint(p, tr, sp)
		res.Points[i] = r
		f.judge(p, r)
	}
	res.Wall = time.Since(t0)
	return res
}

// judge counts the point as attempted, and as failed when its query erred
// or its virtual result left the reference envelope.
func (f *figureRun) judge(p point, r pointRun) {
	failed := r.Err
	if failed == nil {
		v := f.ref.check(p.Figure, p.Key, int64(r.Makespan))
		if v.Drift {
			f.drifted[p.Key] = true
		}
		f.maxDev[p.Figure] = max(f.maxDev[p.Figure], v.Dev)
		failed = v.Failed
	}
	f.rep.Tally.add(failed != nil)
	if failed != nil {
		f.rep.Correct = false
		noteErr(f.rep, failed)
	}
}

// timeSetup measures the one-time set-up of a figure run — a simulated
// environment and engine, a warm-up query, and teardown — setupRounds
// times, in seconds.
func timeSetup(warm point) ([]float64, error) {
	var ds []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		r := runPoint(warm, nil, noParent)
		if r.Err != nil {
			return nil, fmt.Errorf("set-up: %w", r.Err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, nil
}

func runFigures(cfg config, deck []point, warm point) (*report, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	f := &figureRun{ref: ref, deck: shuffled(deck, cfg.Seed), rep: rep,
		drifted: map[string]bool{}, maxDev: map[string]float64{}}

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	var plain, traced []passResult
	var tr *tracer
	var mem []memDelta
	var setups []float64
	if cfg.Trace {
		tr = newTracer()
	}
	// Untraced runs repeat the pass, at least minPasses times, until the
	// next one would overrun the budget by more than half a pass. Traced
	// runs alternate an untraced and a traced pass, so the tracing overhead
	// is measured within one process.
	minPasses := 3
	if cfg.Trace {
		minPasses = 1
	}
	var rss []float64
	var win rssWindow
	for {
		s, err := timeSetup(warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		if err := win.open(); err != nil {
			return nil, err
		}
		m0 := readMem()
		plain = append(plain, f.pass(nil))
		mem = append(mem, m0.delta(readMem()))
		peak, err := win.peak()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		if cfg.Trace {
			traced = append(traced, f.pass(tr))
		}
		last := plain[len(plain)-1].Wall
		if cfg.Trace {
			last += traced[len(traced)-1].Wall
		}
		if len(plain) >= minPasses && time.Since(start)+last/2 > budget {
			break
		}
	}

	var walls, ttfb []float64
	var points int
	var total time.Duration
	for _, p := range plain {
		walls = append(walls, p.Wall.Seconds())
		total += p.Wall
		prevEnd := time.Time{}
		for _, r := range p.Points {
			points++
			due := r.Start
			if !prevEnd.IsZero() {
				due = prevEnd
			}
			if !r.FirstRow.IsZero() {
				ttfb = append(ttfb, ms(r.FirstRow.Sub(due)))
			}
			prevEnd = r.End
		}
	}
	rep.Notes["passes"] = len(plain)
	rep.Notes["points_per_pass"] = len(deck)
	rep.Notes["pass_s"] = walls
	rep.Notes["drifted_points"] = sortedKeys(f.drifted)
	rep.Notes["max_deviation"] = f.maxDev
	rep.Notes["failed_frac"] = rep.Tally.failedFrac()
	if !cfg.Trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("regen_s", "s", median(walls))
		rep.set("sessions_per_s", "1/s", float64(points)/total.Seconds())
		rep.set("ttfb_p50_ms", "ms", median(ttfb))
		rep.set("peak_rss_mb", "MB", median(rss))
		rep.set("ok_frac", "1", 1-rep.Tally.failedFrac())
		return rep, nil
	}

	layers := newLayerStats()
	for _, p := range traced {
		for i, r := range p.Points {
			layers.addPoint(f.deck[i], r)
		}
	}
	if err := layers.replay(f.deck); err != nil {
		return nil, err
	}
	layers.report(rep, tr, len(traced))
	rep.set("vtime.drift_points", "count", float64(len(f.drifted)))
	reportHost(rep, mem)
	if v, beyond, ok := tail(ttfb, 0.99); ok {
		rep.set("ttfb_p99_ms", "ms", v)
		rep.Notes["ttfb_p99_beyond"] = beyond
	} else {
		rep.unmeasured("ttfb_p99_ms", "ms", fmt.Sprintf("%d samples, %d beyond p99: fewer than %d", len(ttfb), beyond, minBeyond))
	}
	var tw, pw []float64
	for i := range traced {
		tw = append(tw, traced[i].Wall.Seconds())
		pw = append(pw, plain[i].Wall.Seconds())
	}
	rep.set("trace.overhead_pct", "%", 100*(median(tw)/median(pw)-1))
	rep.unmeasured("gen.lag_p99_ms", "ms", "closed loop over figure points: no arrival schedule")
	for _, m := range []struct{ name, unit string }{
		{"sched.admission_wait_p50_us", "us"}, {"sched.admission_wait_p99_us", "us"},
		{"sched.retried", "count"}, {"server.ttfb_p50_us", "us"},
	} {
		rep.unmeasured(m.name, m.unit, "figure points run on core.Engine directly: no scheduler or server")
	}
	return rep, tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed)))
}

// memDelta is what the Go runtime allocated and collected over a pass.
type memDelta struct {
	AllocBytes uint64
	GCCycles   uint32
	PauseNs    uint64
}

type memSample runtime.MemStats

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample(m)
}

func (a memSample) delta(b memSample) memDelta {
	return memDelta{b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC, b.PauseTotalNs - a.PauseTotalNs}
}

// reportHost reports the mean allocation and GC cost of an untraced pass.
// A mean, not a median: a short pass often sees no collection at all.
func reportHost(rep *report, ds []memDelta) {
	var d memDelta
	for _, x := range ds {
		d.AllocBytes += x.AllocBytes
		d.GCCycles += x.GCCycles
		d.PauseNs += x.PauseNs
	}
	n := float64(max(len(ds), 1))
	rep.set("host.alloc_mb", "MB", float64(d.AllocBytes)/1e6/n)
	rep.set("host.gc_cycles", "count", float64(d.GCCycles)/n)
	rep.set("host.gc_pause_ms", "ms", float64(d.PauseNs)/1e6/n)
	rep.Notes["host_per"] = fmt.Sprintf("mean per untraced pass over %d passes", len(ds))
}
