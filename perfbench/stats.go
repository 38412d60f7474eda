package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a tail percentile
// before the benchmark reports it; with fewer, the percentile is mostly one
// or two outliers and moves from run to run on its own.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports the q-quantile of xs together with how many samples lie
// strictly above it. ok is false when fewer than minBeyond do: the caller
// must not report the percentile then.
func tail(xs []float64, q float64) (v float64, beyond int, ok bool) {
	v = quantile(xs, q)
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond, beyond >= minBeyond
}

// tally counts operations — figure points or wire sessions — and those that
// failed or were refused.
type tally struct {
	Attempted int
	Failed    int
}

func (t *tally) add(failed bool) {
	t.Attempted++
	if failed {
		t.Failed++
	}
}

// failedFrac is failed over attempted; 1 when nothing was attempted, so an
// empty run never reads as a clean one.
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
