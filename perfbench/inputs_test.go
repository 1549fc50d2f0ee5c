package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"mssg/internal/graph"
)

// encodeEdges serializes an edge stream for byte-level comparison.
func encodeEdges(edges []graph.Edge) []byte {
	var buf bytes.Buffer
	for _, e := range edges {
		binary.Write(&buf, binary.LittleEndian, [2]int64{int64(e.Src), int64(e.Dst)})
	}
	return buf.Bytes()
}

// planBytes serializes everything a seed determines for every workload:
// the edge stream, bfs-ooc's query and warm-up plans, ingest-ooc's
// probes, and serve-mixed's query/commit schedule.
func planBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	const scale = 0.0005
	in, err := makeInputs(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.cfg.Vertices, in.edges)
	var buf bytes.Buffer
	buf.Write(encodeEdges(in.edges))
	fmt.Fprintln(&buf, stratifiedPairs(in, o, seed, "bfs", 8, 4))
	fmt.Fprintln(&buf, medianPairs(in, o, seed, "warm", 2))
	fmt.Fprintln(&buf, distance2Probes(in, o, seed, "probe0", 16))
	s := makeSchedule(in, sizings["serve-mixed"].sched, seed, "serve0")
	buf.Write(encodeEdges(s.Prefix))
	for _, r := range s.Rounds {
		fmt.Fprintln(&buf, r.Requests)
		buf.Write(encodeEdges(r.Commit))
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := planBytes(t, 7), planBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a, planBytes(t, 8)) {
		t.Fatal("a different seed gave identical inputs")
	}
	// Each part changes on its own too: the edge streams differ, and so
	// do the query sequences drawn over them.
	in7, _ := makeInputs(0.0005, 7)
	in8, _ := makeInputs(0.0005, 8)
	if bytes.Equal(encodeEdges(in7.edges), encodeEdges(in8.edges)) {
		t.Error("seeds 7 and 8 generated the same edge stream")
	}
	p7 := stratifiedPairs(in7, newOracle(in7.cfg.Vertices, in7.edges), 7, "bfs", 8, 4)
	p8 := stratifiedPairs(in8, newOracle(in8.cfg.Vertices, in8.edges), 8, "bfs", 8, 4)
	if fmt.Sprint(p7) == fmt.Sprint(p8) {
		t.Error("seeds 7 and 8 drew the same BFS plan")
	}
}

func TestStratifiedPlanCoversEveryStratum(t *testing.T) {
	in, err := makeInputs(0.0005, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.cfg.Vertices, in.edges)
	const strata, per = 8, 5
	plan := stratifiedPairs(in, o, 3, "bfs", strata, per)
	if len(plan) != strata*per {
		t.Fatalf("plan has %d pairs, want %d", len(plan), strata*per)
	}
	// Every run of strata consecutive pairs holds one pair from each
	// cost stratum: its j-th cheapest pair lies within the j-th stratum
	// of the whole plan's cost ranking.
	work := make([]int64, len(plan))
	for i, q := range plan {
		_, work[i] = o.search(q.Source, q.Dest, maxBFSLevels)
	}
	ranked := append([]int64(nil), work...)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i] < ranked[j] })
	for run := 0; run < per; run++ {
		w := append([]int64(nil), work[run*strata:(run+1)*strata]...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		for j, x := range w {
			if x < ranked[j*per] || x > ranked[(j+1)*per-1] {
				t.Fatalf("run %d: cost %d is not in stratum %d [%d, %d]", run, x, j, ranked[j*per], ranked[(j+1)*per-1])
			}
		}
	}
	for _, q := range plan {
		if q.Source == q.Dest {
			t.Fatalf("pair %v has equal endpoints", q)
		}
	}
}

func TestDistance2Probes(t *testing.T) {
	in, err := makeInputs(0.0005, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.cfg.Vertices, in.edges)
	for _, q := range distance2Probes(in, o, 5, "probe", 50) {
		if got := o.answer(q); got != 2 {
			t.Fatalf("probe %v has reference distance %d, want 2", q, got)
		}
	}
}

func TestScheduleRepeatsAndCommits(t *testing.T) {
	in, err := makeInputs(0.0005, 9)
	if err != nil {
		t.Fatal(err)
	}
	sc := sizings["serve-mixed"].sched
	s := makeSchedule(in, sc, 9, "serve")
	committed := len(s.Prefix)
	var requests, repeats int
	for _, r := range s.Rounds {
		committed += len(r.Commit)
		seen := make(map[request]bool)
		for _, q := range r.Requests {
			requests++
			if seen[q] {
				repeats++
			}
			seen[q] = true
		}
	}
	if committed != len(in.edges) {
		t.Errorf("schedule commits %d of %d edges", committed, len(in.edges))
	}
	share := float64(repeats) / float64(requests)
	if share < 0.25 || share > 0.45 {
		t.Errorf("repeat share %.3f, want roughly a third", share)
	}
}
