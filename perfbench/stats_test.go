package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRankPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"one sample", []float64{7}, 50, 7},
		{"one sample tail", []float64{7}, 99, 7},
		{"median of ten", ten, 50, 5},
		{"p51 of ten moves up", ten, 51, 6},
		{"p90 of ten", ten, 90, 9},
		{"p91 of ten", ten, 91, 10},
		{"p100 of ten", ten, 100, 10},
		{"tiny p of ten", ten, 0.1, 1},
		{"median of odd count", []float64{1, 2, 3}, 50, 2},
		{"median of two", []float64{1, 2}, 50, 1},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: p%g = %g, want %g", c.name, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},   // p50 leaves 9 beyond
		{20, 50, true},   // p50 leaves 10
		{39, 50, true},   // p75 rank 30 leaves 9
		{40, 75, true},   // p75 rank 30 leaves 10
		{99, 75, true},   // p90 rank 90 leaves 9
		{100, 90, true},  // p90 rank 90 leaves 10
		{200, 95, true},  // p95 rank 190 leaves 10
		{999, 95, true},  // p99 rank 990 leaves 9
		{1000, 99, true}, // p99 rank 990 leaves 10
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

// TestSummarizeBimodal checks the shape bfs-ooc produces: most searches
// stop within a few levels, a minority traverse most of the graph, so
// latencies form two clusters far apart. Nearest-rank quantiles must
// return observed samples (never a value interpolated into the gap).
func TestSummarizeBimodal(t *testing.T) {
	var l latencies
	for i := 0; i < 80; i++ { // fast cluster: 10..89 ms
		l.add(time.Duration(10+i) * time.Millisecond)
	}
	for i := 0; i < 20; i++ { // slow cluster: 900..995 ms
		l.add(time.Duration(900+5*i) * time.Millisecond)
	}
	s := l.summarize(90)
	if s.N != 100 || s.TailP != 90 || s.Beyond != 10 {
		t.Fatalf("summary %+v: want 100 samples, 10 beyond p90", s)
	}
	if s.P50 != 59 {
		t.Errorf("p50 = %g, want 59 (the 50th sample)", s.P50)
	}
	if s.Tail != 945 {
		t.Errorf("p90 = %g, want 945 (the 90th sample, inside the slow cluster)", s.Tail)
	}

	// With too few samples for p90 the tail stays at p90, and Beyond
	// shows that fewer than minBeyond samples lie past it.
	var few latencies
	for i := 0; i < 50; i++ {
		few.add(time.Duration(i+1) * time.Millisecond)
	}
	s = few.summarize(90)
	if s.TailP != 90 || s.Tail != 45 || s.Beyond != 5 {
		t.Errorf("50 samples: %+v, want p90 = 45 with 5 beyond", s)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
}
