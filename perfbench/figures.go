package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// The figure workloads use the scaled-down arrays of EXPERIMENTS.md.
const (
	mpiArrayBytes = 300_000 // Figures 6 and 8: 20 × 300 KB per producer
	mpiArrayCount = 20
	tcpArrayBytes = 100_000 // Figure 15: 60 × 100 KB per back-end stream
	tcpArrayCount = 60
	paperArrayKB  = 3_000_000
)

// bufSizes is the MPI buffer-size sweep of Figures 6 and 8, 100 B to 1 MB.
var bufSizes = []int{100, 300, 1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000}

// point is one figure measurement: one SCSQL statement on a fresh simulated
// environment and engine, whose single result row is the count of arrays
// the consuming stream process received.
type point struct {
	Key     string // reference key, e.g. "fig6/buf=100/single"
	Figure  string // "fig6", "fig8" or "fig15"
	Stmt    string
	Want    int64  // expected result row
	Elems   int64  // arrays pushed by all producers
	ElemB   int    // bytes per array
	Carrier string // carrier of the arrays: "mpi" or "tcp"

	buf       int               // MPI buffer bytes, 0 for the engine default
	mode      carrier.Buffering // 0 for the engine default
	costScale float64           // ScaleInboundFixed factor, 0 for the default cost model
}

// mpiDeck is the mpi-sweep workload: Figure 6 (Figure 5 query, single and
// double buffering) and Figure 8 (merge query, sequential x=1,y=2 and
// balanced x=1,y=4 node selections, both bufferings) at every buffer size.
func mpiDeck() []point {
	var deck []point
	modes := []carrier.Buffering{carrier.SingleBuffered, carrier.DoubleBuffered}
	for _, buf := range bufSizes {
		for _, mode := range modes {
			deck = append(deck, point{
				Key:     fmt.Sprintf("fig6/buf=%d/%s", buf, mode),
				Figure:  "fig6",
				Stmt:    scsql.Figure5Query(mpiArrayBytes, mpiArrayCount),
				Want:    mpiArrayCount,
				Elems:   mpiArrayCount,
				ElemB:   mpiArrayBytes,
				Carrier: "mpi",
				buf:     buf,
				mode:    mode,
			})
		}
	}
	for _, buf := range bufSizes {
		for _, topo := range []struct {
			name string
			x, y int
		}{{"sequential", 1, 2}, {"balanced", 1, 4}} {
			for _, mode := range modes {
				deck = append(deck, point{
					Key:     fmt.Sprintf("fig8/buf=%d/%s/%s", buf, topo.name, mode),
					Figure:  "fig8",
					Stmt:    scsql.MergeQuery(topo.x, topo.y, mpiArrayBytes, mpiArrayCount),
					Want:    2 * mpiArrayCount,
					Elems:   2 * mpiArrayCount,
					ElemB:   mpiArrayBytes,
					Carrier: "mpi",
					buf:     buf,
					mode:    mode,
				})
			}
		}
	}
	return deck
}

// tcpDeck is the tcp-inbound workload: Figure 15, Queries 1–6 with
// n = 1…8 back-end streams of 60 × 100 KB, per-message fixed costs
// rescaled to the array size so the curves match the paper-scale run.
func tcpDeck() ([]point, error) {
	var deck []point
	for q := 1; q <= 6; q++ {
		for n := 1; n <= 8; n++ {
			stmt, err := scsql.InboundQuery(q, n, tcpArrayBytes, tcpArrayCount)
			if err != nil {
				return nil, err
			}
			deck = append(deck, point{
				Key:       fmt.Sprintf("fig15/q=%d/n=%d", q, n),
				Figure:    "fig15",
				Stmt:      stmt,
				Want:      int64(n) * tcpArrayCount,
				Elems:     int64(n) * tcpArrayCount,
				ElemB:     tcpArrayBytes,
				Carrier:   "tcp",
				costScale: float64(tcpArrayBytes) / paperArrayKB,
			})
		}
	}
	return deck, nil
}

// shuffled returns the deck in a seed-determined order. Every point runs on
// its own environment and engine, so the order changes no result, only
// what runs before what in the process (heap state, caches).
func shuffled(deck []point, seed int64) []point {
	out := append([]point(nil), deck...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setup builds the point's simulated environment and engine.
func (p point) setup() (*hw.Env, *core.Engine, error) {
	var envOpts []hw.Option
	if p.costScale > 0 {
		envOpts = append(envOpts, hw.WithCostModel(hw.DefaultCostModel().ScaleInboundFixed(p.costScale)))
	}
	env, err := hw.NewLOFAR(envOpts...)
	if err != nil {
		return nil, nil, err
	}
	opts := []core.Option{core.WithEnv(env)}
	if p.buf > 0 {
		opts = append(opts, core.WithMPIBufferBytes(p.buf))
	}
	if p.mode != 0 {
		opts = append(opts, core.WithBuffering(p.mode))
	}
	eng, err := core.NewEngine(opts...)
	if err != nil {
		return nil, nil, err
	}
	return env, eng, nil
}

// pointRun is the outcome of one point.
type pointRun struct {
	Makespan vtime.Duration
	Start    time.Time
	FirstRow time.Time
	End      time.Time
	Err      error

	// Filled on traced runs only.
	Counters     metrics.Snapshot
	Reserved     int           // virtual-time reservations granted
	Reservations []reservation // the first maxRecorded of them
	CatalogSnap  time.Duration
}

// maxRecorded caps the reservations a traced point keeps for replay.
const maxRecorded = 20_000

// reservation is one grant recorded on a resource of the point's
// environment; the traced run replays them through vtime.Resource.UseAs.
type reservation struct {
	res     int // index into hw.Env.Resources()
	owner   string
	ready   vtime.Time
	service vtime.Duration
}

// runPoint runs p from set-up to teardown. With a tracer it records a span
// around each call into the engine, the point's metric counters, and every
// virtual-time reservation its environment granted.
func runPoint(p point, tr *tracer, parent int) (r pointRun) {
	r.Start = time.Now()
	sp := tr.begin("point", parent, p.Key)
	defer func() { r.End = time.Now(); tr.end(sp) }()

	s := tr.begin("core.setup", sp, p.Key)
	env, eng, err := p.setup()
	tr.end(s)
	if err != nil {
		r.Err = err
		return
	}
	defer func() {
		s := tr.begin("core.close", sp, p.Key)
		if err := eng.Close(); err != nil && r.Err == nil {
			r.Err = fmt.Errorf("%s: close: %w", p.Key, err)
		}
		tr.end(s)
	}()
	if tr != nil {
		var mu sync.Mutex
		for i, res := range env.Resources() {
			i := i
			res.SetRecorder(func(owner string, ready vtime.Time, service vtime.Duration, _, _ vtime.Time) {
				mu.Lock()
				r.Reserved++
				if len(r.Reservations) < maxRecorded {
					r.Reservations = append(r.Reservations, reservation{i, owner, ready, service})
				}
				mu.Unlock()
			})
		}
	}

	s = tr.begin("core.build", sp, p.Key)
	res, err := scsql.NewEvaluator(eng, nil).Exec(p.Stmt)
	tr.end(s)
	if err != nil {
		r.Err = err
		return
	}
	res.Stream.SetElementObserver(func(sqep.Element) {
		if r.FirstRow.IsZero() {
			r.FirstRow = time.Now()
		}
	})
	s = tr.begin("core.drain", sp, p.Key)
	els, err := res.Stream.Drain()
	tr.end(s)
	if err != nil {
		r.Err = err
		return
	}
	r.Makespan = res.Stream.Makespan().Sub(0)
	if len(els) != 1 {
		r.Err = fmt.Errorf("%s: %d result rows, want 1", p.Key, len(els))
		return
	}
	if got, ok := els[0].Value.(int64); !ok || got != p.Want {
		r.Err = fmt.Errorf("%s: result %v (%T), want %d", p.Key, els[0].Value, els[0].Value, p.Want)
		return
	}
	if r.Makespan <= 0 {
		r.Err = fmt.Errorf("%s: non-positive makespan %v", p.Key, r.Makespan)
		return
	}
	if tr != nil {
		r.Counters = eng.MetricsSnapshot()
		tab, ok := eng.SystemCatalog().Lookup("sys_nodes")
		if !ok {
			r.Err = fmt.Errorf("%s: no sys_nodes catalog table", p.Key)
			return
		}
		s = tr.begin("catalog.snapshot", sp, p.Key)
		t0 := time.Now()
		rows, err := tab.Snap("")
		r.CatalogSnap = time.Since(t0)
		tr.end(s)
		if err != nil || len(rows) == 0 {
			r.Err = fmt.Errorf("%s: sys_nodes snapshot: %d rows, %v", p.Key, len(rows), err)
			return
		}
		for _, res := range env.Resources() {
			res.SetRecorder(nil)
		}
	}
	s = tr.begin("core.reset", sp, p.Key)
	err = eng.Reset()
	tr.end(s)
	if err != nil {
		r.Err = fmt.Errorf("%s: reset: %w", p.Key, err)
	}
	return
}
