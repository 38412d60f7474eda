package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// referenceJSON is every figure point's virtual makespan, generated at the
// commit that introduced the benchmark with --write-reference.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the committed virtual-time result of every figure point.
type reference struct {
	Note string `json:"note"`
	// Envelope is, per figure, the largest relative makespan deviation
	// from the reference a point may show before it counts as failed.
	// Figure 6 has none: its points must match bit for bit. Figures 8 and
	// 15 involve concurrent stream processes whose virtual schedule
	// currently depends on goroutine timing, so their points drift.
	Envelope map[string]float64 `json:"envelope"`
	// Makespan is the virtual makespan in nanoseconds, per point key.
	Makespan map[string]int64 `json:"makespan_ns"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// verdict is how one measured point compares to the reference.
type verdict struct {
	Drift  bool    // the makespan differs from the reference at all
	Dev    float64 // relative deviation of the makespan
	Failed error   // outside the figure's envelope, or no reference
}

// check compares a measured virtual makespan with the reference.
func (ref reference) check(figure, key string, makespanNs int64) verdict {
	want, ok := ref.Makespan[key]
	if !ok || want <= 0 {
		return verdict{Failed: fmt.Errorf("%s: no reference makespan", key)}
	}
	env, ok := ref.Envelope[figure]
	if !ok {
		return verdict{Failed: fmt.Errorf("%s: no envelope for figure %s", key, figure)}
	}
	v := verdict{Drift: makespanNs != want, Dev: math.Abs(float64(makespanNs-want)) / float64(want)}
	if v.Drift && v.Dev > env {
		v.Failed = fmt.Errorf("%s: makespan %d ns, reference %d ns (%.2f%% off, envelope %.2f%%)",
			key, makespanNs, want, 100*v.Dev, 100*env)
	}
	return v
}

// referenceRounds is how often --write-reference runs every point; the
// reference is the per-point median.
const referenceRounds = 5

// writeReference runs every figure point and the wire-mix paper queries,
// uncontended, referenceRounds times and writes their median virtual
// makespans. The envelopes are kept from the embedded reference: they are
// measured, not derived.
func writeReference(path string) error {
	old, err := loadReference()
	if err != nil {
		return err
	}
	tcp, err := tcpDeck()
	if err != nil {
		return err
	}
	ref := reference{Note: old.Note, Envelope: old.Envelope, Makespan: map[string]int64{}}
	runs := map[string][]float64{}
	for i := 0; i < referenceRounds; i++ {
		for _, p := range append(append(mpiDeck(), tcp...), wireDeck()...) {
			r := runPoint(p, nil, noParent)
			if r.Err != nil {
				return r.Err
			}
			runs[p.Key] = append(runs[p.Key], float64(r.Makespan))
		}
	}
	for k, v := range runs {
		ref.Makespan[k] = int64(median(v))
	}
	return writeJSON(path, ref)
}
