package main

import (
	"math"
	"sort"
	"time"
)

// Quantiles here are exact: nearest-rank over the raw samples the
// benchmark's own clocks took, never interpolated and never read from
// bucketed histograms.

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of percentile p among n samples:
// the smallest rank whose sample is at or above p percent of all. The
// epsilon keeps float rounding (0.9*100 > 90) from moving a rank up.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the highest percentile of the ladder with at
// least minBeyond samples beyond its nearest rank; ok is false when n is
// too small for any.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencies collects per-request latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

// summary is a latency distribution reduced to the reported figures.
type summary struct {
	N      int
	P50    float64
	TailP  float64 // the workload's fixed tail percentile
	Tail   float64
	Beyond int // samples beyond the tail's nearest rank
}

// summarize reports the median and the tail at the workload's fixed
// percentile tailP. The percentile never moves with the sample count:
// a run that collects fewer samples than the ≥minBeyond rule needs for
// tailP still reports tailP, and Beyond says how thin that tail is.
// Switching percentiles would make runs of one workload incomparable.
func (l *latencies) summarize(tailP float64) summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50), TailP: tailP, Tail: percentile(s, tailP)}
	if len(s) > 0 {
		out.Beyond = len(s) - rank(tailP, len(s))
	}
	return out
}

// medianOf returns the nearest-rank median of xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
