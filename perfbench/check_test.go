package main

import (
	"testing"

	"mssg/internal/graph"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// corruptBFS answers every BFS one level too long.
type corruptBFS struct{ system }

func (c corruptBFS) BFS(cfg query.BFSConfig) (query.BFSResult, error) {
	res, err := c.system.BFS(cfg)
	res.PathLength++
	return res, err
}

// lossyIngest silently drops the last edge of every ingest.
type lossyIngest struct{ system }

func (l lossyIngest) IngestEdges(edges []graph.Edge) (*ingest.Stats, error) {
	return l.system.IngestEdges(edges[:len(edges)-1])
}

func TestCorruptedAnswersAreCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	b := &bench{workload: "bfs-ooc", seed: 4, dir: t.TempDir(), size: testSizing("bfs-ooc"), maxOps: 3,
		wrap: func(s system) system { return corruptBFS{s} }}
	r, err := runBFSOOC(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.completed == 0 || r.failed != r.completed {
		t.Fatalf("bfs-ooc: %d of %d corrupted answers counted as failed", r.failed, r.completed)
	}

	b = &bench{workload: "serve-mixed", seed: 4, dir: t.TempDir(), size: testSizing("serve-mixed"), maxOps: 2,
		wrap: func(s system) system { return lossyIngest{s} }}
	if r, err = runServeMixed(b); err != nil {
		t.Fatal(err)
	}
	// Every load and commit stores one edge too few; answers that
	// depended on a dropped edge fail their check as well.
	if loads := int64(cycles * (1 + b.maxOps)); r.failed < loads {
		t.Fatalf("serve-mixed: %d failures counted, want at least the %d lossy loads and commits", r.failed, loads)
	}
}

func TestCheckCountsMismatches(t *testing.T) {
	// Path 0-1-2-3 plus an isolated edge 4-5.
	o := newOracle(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}})
	r := &result{}
	r.check(o, []checked{
		{request{Source: 0, Dest: 3}, 3},  // right
		{request{Source: 0, Dest: 3}, 2},  // wrong length
		{request{Source: 0, Dest: 5}, -1}, // right: unreachable
		{request{Source: 0, Dest: 5}, 4},  // wrong: claims a path
		{request{Source: 1, K: 2}, 3},     // right: 0, 2, 3
		{request{Source: 1, K: 2}, 2},     // wrong count
	})
	if r.failed != 3 || len(r.wrong) != 3 {
		t.Fatalf("counted %d failures (%v), want 3", r.failed, r.wrong)
	}
}
