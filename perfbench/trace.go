package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"` // figure point key or wire session id
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noParent marks a root span.
const noParent = -1

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent int, id string) int {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// its children cover. Children of one parent may overlap (concurrent wire
// sessions); their union is subtracted, never more than the parent's span.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := coveredWithin(kids[i], s.Start, s.End)
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredWithin is the length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// selfByName collects self times per span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], self[i])
		}
	}
	return out
}

// write stores every span and its self time as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type row struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, int64(self[i])}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
