package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scsq"
	"scsq/internal/metrics"
	"scsq/internal/scsql"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

// defaultMPIBuf is the MPI send-buffer size of core.Engine and of
// scsq-server when no flag overrides it.
const defaultMPIBuf = 64 * 1024

// The wire-mix workload's knobs. The closed-loop capacity of the mix on a
// fresh stack was 1400-1950 sessions/s on a 2-core host, depending on the
// host's other load. wireRate stays under half of the low end: at 950/s,
// Poisson bursts on a slow host overflowed the scheduler's 64-session
// admission queue and sessions were refused.
const (
	wireConns        = 2
	wireRate         = 600.0                  // open-loop arrivals per second
	wireOpen         = 600 * time.Millisecond // open loop per cycle
	wireDeckSize     = 40                     // sessions per closed-loop pass: a multiple of the mix weights (10)
	wireClosedPasses = 6                      // closed-loop passes per cycle
	wireArrayB       = 30_000
	wireArrayN       = 10
	// maxGenLag is the generator lateness (p99) past which the run is
	// invalid: the load generator, not the server, set the pace.
	maxGenLag = 20 * time.Millisecond
)

// wireStmt is one statement of the wire mix.
type wireStmt struct {
	Name   string
	Stmt   string
	Weight int
	Want   int64 // the single result row
}

// wireDeck is the paper queries of the mix as figure points, run on a core
// engine configured like the server: the traced run's layer pass and the
// reference both use it.
func wireDeck() []point {
	q1, err := scsql.InboundQuery(1, 2, wireArrayB, wireArrayN)
	if err != nil {
		panic(err) // Query 1 always exists
	}
	return []point{
		{Key: "wire/fig5", Figure: "fig6", Stmt: scsql.Figure5Query(wireArrayB, wireArrayN),
			Want: wireArrayN, Elems: wireArrayN, ElemB: wireArrayB,
			Carrier: "mpi", buf: defaultMPIBuf},
		{Key: "wire/q1-n2", Figure: "fig15", Stmt: q1,
			Want: 2 * wireArrayN, Elems: 2 * wireArrayN, ElemB: wireArrayB,
			Carrier: "tcp", buf: defaultMPIBuf},
		{Key: "wire/merge-balanced", Figure: "fig8", Stmt: scsql.MergeQuery(1, 4, wireArrayB, wireArrayN),
			Want: 2 * wireArrayN, Elems: 2 * wireArrayN, ElemB: wireArrayB,
			Carrier: "mpi", buf: defaultMPIBuf},
	}
}

// wireMix is the statement mix: catalog reads that spawn no stream process
// and use no virtual time, and the three small paper queries.
func wireMix(nodes int64) []wireStmt {
	mix := []wireStmt{{Name: "count-nodes", Stmt: `select count(sys_nodes());`, Weight: 4, Want: nodes}}
	for _, p := range wireDeck() {
		mix = append(mix, wireStmt{Name: strings.TrimPrefix(p.Key, "wire/"), Stmt: p.Stmt, Weight: 2, Want: p.Want})
	}
	return mix
}

// pick draws a statement index by weight.
func pick(rng *rand.Rand, mix []wireStmt) int {
	total := 0
	for _, s := range mix {
		total += s.Weight
	}
	x := rng.Intn(total)
	for i, s := range mix {
		if x < s.Weight {
			return i
		}
		x -= s.Weight
	}
	return len(mix) - 1
}

// closedDeck is the closed loop's deck: every statement exactly in
// proportion to its weight, so decks of different seeds carry the same
// work, in a seeded order.
func closedDeck(rng *rand.Rand, mix []wireStmt) []int {
	total := 0
	for _, s := range mix {
		total += s.Weight
	}
	var deck []int
	for i, s := range mix {
		for j := 0; j < s.Weight*wireDeckSize/total; j++ {
			deck = append(deck, i)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// arrival is one scheduled session of the open loop.
type arrival struct {
	At   time.Duration // offset from the start of the open loop
	Kind int           // index into the mix
}

// arrivals generates a Poisson arrival process of the given rate over dur,
// and the statement of each arrival, from rng.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration, mix []wireStmt) []arrival {
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{At: at, Kind: pick(rng, mix)})
	}
}

// wireEnv is a running server with its client connections.
type wireEnv struct {
	eng   *scsq.Engine
	srv   *server.Server
	conns []*client.Client
	mix   []wireStmt
}

// startWire builds the server as scsq-server does by default — 64 KB MPI
// buffers, no placement planner, simulated TCP — listens on a loopback
// port, dials the connections, and runs every statement once on each.
func startWire() (*wireEnv, error) {
	eng, err := scsq.New(scsq.WithMPIBufferBytes(defaultMPIBuf))
	if err != nil {
		return nil, err
	}
	w := &wireEnv{eng: eng, srv: server.New(eng, server.Config{})}
	addr, err := w.srv.Listen()
	if err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < wireConns; i++ {
		c, err := client.Dial(addr.String(), client.Options{})
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, c)
	}
	nodes, err := eng.SystemRows("sys_nodes", "")
	if err != nil {
		w.close()
		return nil, err
	}
	w.mix = wireMix(int64(len(nodes)))
	for _, c := range w.conns {
		for _, st := range w.mix {
			if r := runSession(c, st, time.Now(), nil, noParent, ""); r.Err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up %s: %w", st.Name, r.Err)
			}
		}
	}
	return w, nil
}

func (w *wireEnv) close() {
	for _, c := range w.conns {
		c.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.eng.Close()
}

// sessionRun is the client-side record of one wire session.
type sessionRun struct {
	Kind     int
	Due      time.Time // when the generator scheduled the send
	FirstRow time.Time
	End      time.Time
	Err      error
}

// runSession submits st on c, reads every row, and checks the rows against
// the expected result and against the server's own Done.Rows count.
func runSession(c *client.Client, st wireStmt, due time.Time, tr *tracer, parent int, id string) (r sessionRun) {
	r.Due = due
	sp := tr.begin("session", parent, id)
	defer func() { r.End = time.Now(); tr.end(sp) }()
	s := tr.begin("client.submit", sp, id)
	h, err := c.Submit(st.Stmt, 0)
	tr.end(s)
	if err != nil {
		r.Err = fmt.Errorf("%s: submit: %w", st.Name, err)
		return
	}
	s = tr.begin("client.recv", sp, id)
	defer tr.end(s)
	var rows []any
	for {
		row, ok, fin := h.Recv()
		if ok {
			if len(rows) == 0 {
				r.FirstRow = time.Now()
			}
			rows = append(rows, row.Value)
			continue
		}
		switch {
		case fin == nil:
			r.Err = fmt.Errorf("%s: connection died", st.Name)
		case fin.Err != "" || fin.State != "done":
			r.Err = fmt.Errorf("%s: %s: %s", st.Name, fin.State, fin.Err)
		case int64(len(rows)) != fin.Rows:
			r.Err = fmt.Errorf("%s: client got %d rows, server sent %d", st.Name, len(rows), fin.Rows)
		case len(rows) != 1 || rows[0] != any(st.Want):
			r.Err = fmt.Errorf("%s: rows %v, want [%d]", st.Name, rows, st.Want)
		}
		return
	}
}

// openLoop sends the arrivals on schedule, each on its own goroutine, over
// the connections in turn, whatever the server's progress.
func (w *wireEnv) openLoop(arr []arrival, tr *tracer, cycle int) (runs []sessionRun, lag []float64, grew bool) {
	runs = make([]sessionRun, len(arr))
	lag = make([]float64, len(arr))
	inflight := make([]int64, len(arr))
	var live atomic.Int64
	var wg sync.WaitGroup
	root := tr.begin("open-loop", noParent, "")
	t0 := time.Now()
	for i, a := range arr {
		due := t0.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = ms(time.Since(due))
		inflight[i] = live.Add(1)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			defer live.Add(-1)
			runs[i] = runSession(w.conns[i%len(w.conns)], w.mix[a.Kind], due, tr, root, fmt.Sprintf("open/%d/%d", cycle, i))
			runs[i].Kind = a.Kind
		}(i, a)
	}
	wg.Wait()
	tr.end(root)
	// The backlog grew when the last quarter of the arrivals found clearly
	// more sessions in flight than the first quarter did.
	q := len(inflight) / 4
	if q > 0 {
		var first, last float64
		for i := 0; i < q; i++ {
			first += float64(inflight[i])
			last += float64(inflight[len(inflight)-1-i])
		}
		grew = last/float64(q) > 2*first/float64(q)+1
	}
	return runs, lag, grew
}

// closedPass runs one deck of sessions, split over the connections, each
// connection sending its next session when the previous one finished.
func (w *wireEnv) closedPass(deck []int, tr *tracer, pass string) (time.Duration, []sessionRun) {
	runs := make([]sessionRun, len(deck))
	root := tr.begin("closed-pass", noParent, "")
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, c := range w.conns {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for i := ci; i < len(deck); i += len(w.conns) {
				runs[i] = runSession(c, w.mix[deck[i]], time.Now(), tr, root, fmt.Sprintf("closed/%s/%d", pass, i))
				runs[i].Kind = deck[i]
			}
		}(ci, c)
	}
	wg.Wait()
	el := time.Since(t0)
	tr.end(root)
	return el, runs
}

// wireSamples pools what the cycles of a wire-mix run measured.
type wireSamples struct {
	deck                                              []int // the closed-loop deck, indices into the mix
	setups, ttfb, lag, walls, tracedWalls, waits, rss []float64
	byKind                                            [][]float64
	mem                                               []memDelta
	sessions, grewCycles                              int
	busy                                              time.Duration
	retried                                           int64
	serverTTFB                                        []metrics.HistogramSnapshot
	catalog                                           []float64
}

// cycle sets up a fresh serving stack, runs one open loop and the
// closed-loop passes on it, and tears it down.
func (ws *wireSamples) cycle(rep *report, rng *rand.Rand, tr *tracer, n int) error {
	var win rssWindow
	if err := win.open(); err != nil {
		return err
	}
	t0 := time.Now()
	w, err := startWire()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	ws.setups = append(ws.setups, time.Since(t0).Seconds())
	count := func(runs []sessionRun) {
		for _, r := range runs {
			rep.Tally.add(r.Err != nil)
			if r.Err != nil {
				rep.Correct = false
				noteErr(rep, r.Err)
			}
		}
	}

	runs, lag, grew := w.openLoop(arrivals(rng, wireRate, wireOpen, w.mix), tr, n)
	count(runs)
	ws.lag = append(ws.lag, lag...)
	if grew {
		ws.grewCycles++
	}
	for _, r := range runs {
		if r.Err == nil {
			v := ms(r.FirstRow.Sub(r.Due))
			ws.ttfb = append(ws.ttfb, v)
			ws.byKind[r.Kind] = append(ws.byKind[r.Kind], v)
		}
	}

	for p := 0; p < wireClosedPasses; p++ {
		m0 := readMem()
		el, runs := w.closedPass(ws.deck, nil, fmt.Sprintf("%d/%d", n, p))
		ws.mem = append(ws.mem, m0.delta(readMem()))
		count(runs)
		ws.walls = append(ws.walls, el.Seconds())
		ws.busy += el
		ws.sessions += len(runs)
		if tr != nil {
			el, runs := w.closedPass(ws.deck, tr, fmt.Sprintf("%d/%d", n, p))
			count(runs)
			ws.tracedWalls = append(ws.tracedWalls, el.Seconds())
		}
	}

	peak, err := win.peak()
	if err != nil {
		return err
	}
	ws.rss = append(ws.rss, peak)

	if tr != nil {
		snap := w.eng.MetricsSnapshot()
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "rt.sched.admission_wait_us.") {
				ws.waits = append(ws.waits, float64(v))
			}
		}
		ws.retried += snap.Counters["sched.retried"]
		ws.serverTTFB = append(ws.serverTTFB, snap.Histograms[metrics.RTPrefix+"server.ttfb"])
		for i := 0; i < 20; i++ {
			s := tr.begin("catalog.snapshot", noParent, "sys_nodes")
			t0 := time.Now()
			_, err := w.eng.SystemRows("sys_nodes", "")
			ws.catalog = append(ws.catalog, us(time.Since(t0)))
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func runWireMix(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	// Every finished session keeps its stream processes' buffers in the
	// scheduler, so one serving stack grows by up to 0.5 MB per paper query
	// it ran. The run therefore measures in short cycles on fresh stacks,
	// which also gives one set-up sample per cycle.
	mix := wireMix(0) // for names and weights; Want needs a live engine
	ws := wireSamples{deck: closedDeck(rng, mix), byKind: make([][]float64, len(mix))}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		c0 := time.Now()
		if err := ws.cycle(rep, rng, tr, n); err != nil {
			return nil, err
		}
		last = time.Since(c0)
	}

	byKind := map[string]float64{}
	for i, k := range ws.byKind {
		byKind[mix[i].Name] = median(k)
	}
	lag99, lagBeyond, lagOK := tail(ws.lag, 0.99)
	rep.Notes["cycles"] = len(ws.setups)
	rep.Notes["rate_per_s"] = wireRate
	rep.Notes["open_loop_s_per_cycle"] = wireOpen.Seconds()
	rep.Notes["open_sessions"] = len(ws.lag)
	rep.Notes["closed_passes"] = len(ws.walls)
	rep.Notes["closed_deck"] = len(ws.deck)
	rep.Notes["closed_pass_ms_quartiles"] = []float64{1e3 * quantile(ws.walls, 0.25), 1e3 * median(ws.walls), 1e3 * quantile(ws.walls, 0.75)}
	rep.Notes["ttfb_p50_ms_by_statement"] = byKind
	rep.Notes["backlog_grew_cycles"] = ws.grewCycles
	rep.Notes["gen_lag_p99_ms"] = lag99
	rep.Notes["gen_lag_samples_beyond_p99"] = lagBeyond
	rep.Notes["failed_frac"] = rep.Tally.failedFrac()
	if v, beyond, ok := tail(ws.ttfb, 0.99); ok {
		rep.Notes["ttfb_p99_ms"] = v
		rep.Notes["ttfb_p99_samples_beyond"] = beyond
	}
	if lagOK && lag99 > ms(maxGenLag) {
		rep.Invalid = fmt.Sprintf("generator fell behind: lateness p99 %.2f ms > %v", lag99, maxGenLag)
	}

	if !cfg.Trace {
		rep.set("setup_s", "s", median(ws.setups))
		rep.set("regen_s", "s", median(ws.walls))
		rep.set("sessions_per_s", "1/s", float64(ws.sessions)/ws.busy.Seconds())
		rep.set("ttfb_p50_ms", "ms", median(ws.ttfb))
		rep.set("peak_rss_mb", "MB", median(ws.rss))
		rep.set("ok_frac", "1", 1-rep.Tally.failedFrac())
		return rep, nil
	}

	// Layer pass: the mix's paper queries on core engines configured like
	// the server, traced, for the core, rp, carrier and vtime layers.
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	layers := newLayerStats()
	drifted := map[string]bool{}
	wd := wireDeck()
	const layerRounds = 5
	for i := 0; i < layerRounds; i++ {
		for _, p := range wd {
			r := runPoint(p, tr, noParent)
			if r.Err == nil {
				v := ref.check(p.Figure, p.Key, int64(r.Makespan))
				if v.Drift {
					drifted[p.Key] = true
				}
				r.Err = v.Failed
			}
			rep.Tally.add(r.Err != nil)
			if r.Err != nil {
				rep.Correct = false
				noteErr(rep, r.Err)
			}
			layers.addPoint(p, r)
		}
	}
	if err := layers.replay(wd); err != nil {
		return nil, err
	}
	layers.report(rep, tr, layerRounds)
	rep.set("vtime.drift_points", "count", float64(len(drifted)))
	rep.Notes["drifted_points"] = sortedKeys(drifted)
	rep.set("scsql.parse_us", "us", parseMix(mix))
	rep.set("catalog.snapshot_us", "us", median(ws.catalog))
	reportHost(rep, ws.mem)
	if v, beyond, ok := tail(ws.ttfb, 0.99); ok {
		rep.set("ttfb_p99_ms", "ms", v)
	} else {
		rep.unmeasured("ttfb_p99_ms", "ms", fmt.Sprintf("%d samples, %d beyond p99", len(ws.ttfb), beyond))
	}
	if lagOK {
		rep.set("gen.lag_p99_ms", "ms", lag99)
	} else {
		rep.unmeasured("gen.lag_p99_ms", "ms", fmt.Sprintf("%d arrivals, %d beyond p99", len(ws.lag), lagBeyond))
	}
	rep.set("trace.overhead_pct", "%", 100*(median(ws.tracedWalls)/median(ws.walls)-1))
	rep.set("sched.admission_wait_p50_us", "us", median(ws.waits))
	if v, beyond, ok := tail(ws.waits, 0.99); ok {
		rep.set("sched.admission_wait_p99_us", "us", v)
	} else {
		rep.unmeasured("sched.admission_wait_p99_us", "us", fmt.Sprintf("%d admissions, %d beyond p99", len(ws.waits), beyond))
	}
	rep.set("sched.retried", "count", float64(ws.retried))
	rep.set("server.ttfb_p50_us", "us", histQuantile(mergeHist(ws.serverTTFB), 0.5)/1e3)
	return rep, tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed)))
}

// mergeHist adds up histogram snapshots of the same power-of-two buckets.
func mergeHist(hs []metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	var out metrics.HistogramSnapshot
	counts := map[int64]int64{}
	for _, h := range hs {
		if h.Count == 0 {
			continue
		}
		if out.Count == 0 || h.MinNs < out.MinNs {
			out.MinNs = h.MinNs
		}
		out.MaxNs = max(out.MaxNs, h.MaxNs)
		out.Count += h.Count
		out.SumNs += h.SumNs
		for _, b := range h.Buckets {
			counts[b.UpperNs] += b.Count
		}
	}
	for up, n := range counts {
		out.Buckets = append(out.Buckets, metrics.Bucket{UpperNs: up, Count: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].UpperNs < out.Buckets[j].UpperNs })
	return out
}

// parseMix times scsql.Parse over the mix's statements, in µs per parse.
func parseMix(mix []wireStmt) float64 {
	const rounds = 200
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, s := range mix {
			if _, err := scsql.Parse(s.Stmt); err != nil {
				return math.NaN()
			}
		}
	}
	return us(time.Since(t0)) / float64(rounds*len(mix))
}

// histQuantile estimates a quantile of a power-of-two bucket histogram,
// interpolating linearly inside the bucket that holds it.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for _, b := range h.Buckets {
		lo := float64(b.UpperNs) / 2
		if seen+float64(b.Count) >= target {
			frac := (target - seen) / float64(b.Count)
			v := lo + frac*(float64(b.UpperNs)-lo)
			return math.Min(math.Max(v, float64(h.MinNs)), float64(h.MaxNs))
		}
		seen += float64(b.Count)
	}
	return float64(h.MaxNs)
}

func noteErr(rep *report, err error) {
	errs, _ := rep.Notes["errors"].([]string)
	if len(errs) < 10 {
		rep.Notes["errors"] = append(errs, err.Error())
	}
}
