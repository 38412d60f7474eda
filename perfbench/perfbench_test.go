package main

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

func durNs(n int64) vtime.Duration { return vtime.Duration(n) }

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, ok := tail(xs, 0.99)
	if !ok || beyond != 10 || v < 990 || v > 991 {
		t.Fatalf("1000 samples: p99 %v with %d beyond, ok=%v; want about 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := tail(xs[:900], 0.99); ok || beyond != 9 {
		t.Fatalf("900 samples: %d beyond p99, ok=%v; want 9 and no p99", beyond, ok)
	}
	if _, _, ok := tail(nil, 0.99); ok {
		t.Fatal("empty sample: p99 reported")
	}
	// Ties at the percentile do not count as beyond it.
	flat := make([]float64, 2000)
	if _, beyond, ok := tail(flat, 0.99); ok || beyond != 0 {
		t.Fatalf("constant sample: %d beyond, ok=%v", beyond, ok)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{10}, 0.99); got != 10 {
		t.Fatalf("single sample = %v", got)
	}
}

func TestFailedFracCountsEveryAttempt(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 1 {
		t.Fatal("an empty run must not read as clean")
	}
	for i := 0; i < 8; i++ {
		tl.add(i%4 == 0)
	}
	if tl.Attempted != 8 || tl.Failed != 2 || tl.failedFrac() != 0.25 {
		t.Fatalf("tally %+v, failed_frac %v; want 8 attempted, 2 failed, 0.25", tl, tl.failedFrac())
	}
}

func testReference(t *testing.T) reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestJudgeCountsErrorsAndEnvelopeExits(t *testing.T) {
	ref := testReference(t)
	f := &figureRun{ref: ref, rep: newReport(), drifted: map[string]bool{}, maxDev: map[string]float64{}}
	const key = "fig8/buf=10000/balanced/single"
	p := point{Key: key, Figure: "fig8"}
	want := ref.Makespan[key]

	f.judge(p, pointRun{Makespan: durNs(want)})                         // exact
	f.judge(p, pointRun{Makespan: durNs(want + want/50)})               // 2% drift: inside
	f.judge(p, pointRun{Makespan: durNs(want * 2)})                     // 100% off: outside
	f.judge(p, pointRun{Err: errors.New("query failed")})               // error
	f.judge(point{Key: "fig8/nonexistent", Figure: "fig8"}, pointRun{}) // no reference

	tl := f.rep.Tally
	if tl.Attempted != 5 || tl.Failed != 3 {
		t.Fatalf("tally %+v, want 5 attempted and 3 failed", tl)
	}
	if !f.drifted[key] || f.rep.Correct {
		t.Fatalf("drifted %v, correct %v", f.drifted, f.rep.Correct)
	}
}

func TestReferenceRejectsDoctoredFigure6(t *testing.T) {
	ref := testReference(t)
	var fig6 []point
	for _, p := range mpiDeck() {
		if p.Figure == "fig6" {
			fig6 = append(fig6, p)
			if _, ok := ref.Makespan[p.Key]; !ok {
				t.Fatalf("reference lacks %s", p.Key)
			}
		}
	}
	if len(fig6) != 18 {
		t.Fatalf("%d Figure 6 points, want 18", len(fig6))
	}
	// A real Figure 6 point reproduces its reference bit for bit.
	p := fig6[len(fig6)-1] // 1 MB buffers: the fastest point
	r := runPoint(p, nil, noParent)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if v := ref.check(p.Figure, p.Key, int64(r.Makespan)); v.Drift || v.Failed != nil {
		t.Fatalf("%s: measured %d ns, reference %d: %+v", p.Key, r.Makespan, ref.Makespan[p.Key], v)
	}
	// One nanosecond of doctoring fails it: Figure 6 has no envelope.
	if v := ref.check(p.Figure, p.Key, int64(r.Makespan)+1); v.Failed == nil {
		t.Fatalf("%s: doctored makespan accepted", p.Key)
	}
}

func TestArrivalsFollowTheSeed(t *testing.T) {
	mix := wireMix(1)
	a := arrivals(rand.New(rand.NewSource(7)), 1000, time.Second, mix)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, time.Second, mix)
	c := arrivals(rand.New(rand.NewSource(8)), 1000, time.Second, mix)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("arrivals must be a function of the seed")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", n)
	}
	kinds := map[int]int{}
	for i, x := range a {
		if x.At >= time.Second || (i > 0 && x.At < a[i-1].At) {
			t.Fatalf("arrival %d at %v out of order or range", i, x.At)
		}
		kinds[x.Kind]++
	}
	if len(kinds) != len(mix) {
		t.Fatalf("mix drew %v, want all %d statements", kinds, len(mix))
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "session", Parent: noParent, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[0] != 40 || self[1] != 30 || self[3] != 30 {
		t.Fatalf("self times %v, want session 40, a 30, c 30", self)
	}
}

func TestHistQuantileInterpolatesInBucket(t *testing.T) {
	h := metrics.HistogramSnapshot{Count: 4, MinNs: 600, MaxNs: 1500,
		Buckets: []metrics.Bucket{{UpperNs: 1024, Count: 2}, {UpperNs: 2048, Count: 2}}}
	if got := histQuantile(h, 0.5); got != 1024 {
		t.Fatalf("p50 = %v, want 1024", got)
	}
	if got := histQuantile(mergeHist([]metrics.HistogramSnapshot{h, h}), 0.5); got != 1024 {
		t.Fatalf("merged p50 = %v, want 1024", got)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "mpi-sweep", "--trace", "2"},
		{"--workload", "mpi-sweep", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
