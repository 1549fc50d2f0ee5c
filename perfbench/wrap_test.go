package main

import (
	"context"
	"errors"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

func TestGraphWrapperForwardsExactExtensions(t *testing.T) {
	tr := newTracer()
	for _, name := range graphdb.Backends() {
		t.Run(name, func(t *testing.T) {
			db, err := graphdb.Open(name, graphdb.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			w, err := tr.wrapGraph(db, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := extensions(w), extensions(db); got != want {
				t.Fatalf("wrapper implements extension set %#x, %T implements %#x", got, db, want)
			}
			if unwrap(w) != db {
				t.Fatal("unwrap does not return the wrapped value")
			}
			if w.ConcurrentReaders() != db.ConcurrentReaders() {
				t.Fatal("ConcurrentReaders not forwarded")
			}

			sc := tr.begin("test", 0, false)
			if err := w.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}}); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			out := graph.NewAdjList(4)
			if err := graphdb.AdjacencyBatch(w, []graph.VertexID{1}, out, 0, graphdb.MetaIgnore); err != nil {
				t.Fatal(err)
			}
			agg := sc.end()
			if out.Len() != 2 {
				t.Fatalf("adjacency through the wrapper returned %d neighbours, want 2", out.Len())
			}
			if s := agg[kStore][2]; s.calls != 1 || s.units != 2 {
				t.Errorf("store counted %+v, want 1 call of 2 edges on node 2", s)
			}
			if a := agg[kAdjacency][2]; a.calls < 1 || a.units != 2 {
				t.Errorf("adjacency counted %+v, want 2 neighbours on node 2", a)
			}
			if f := agg[kFlush][2]; f.calls != 1 {
				t.Errorf("flush counted %+v, want 1 call", f)
			}
			if got, want := w.Stats(), db.Stats(); got != want {
				t.Errorf("Stats through the wrapper %+v, direct %+v", got, want)
			}
		})
	}
}

func TestFabricWrapperForwardsEveryMethod(t *testing.T) {
	tr := newTracer()
	inner := cluster.NewInProc(3, 0)
	f, err := tr.wrapFabric(inner)
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes() != 3 || f.Endpoint(1) != f.Endpoint(1) || f.Endpoint(2).ID() != 2 || f.Endpoint(2).Nodes() != 3 {
		t.Fatal("Nodes/Endpoint/ID not forwarded")
	}
	sc := tr.begin("test", 0, true)
	if err := f.Endpoint(0).Send(1, 5, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Endpoint(1).Recv(5); err != nil || string(m.Payload) != "abc" || m.From != 0 {
		t.Fatalf("Recv = %+v, %v", m, err)
	}
	if err := f.Endpoint(0).Broadcast(6, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if m, ok, err := f.Endpoint(2).TryRecv(6); err != nil || !ok || string(m.Payload) != "xy" {
		t.Fatalf("TryRecv = %+v, %v, %v", m, ok, err)
	}
	if m, err := f.Endpoint(1).RecvCtx(context.Background(), 6); err != nil || string(m.Payload) != "xy" {
		t.Fatalf("RecvCtx = %+v, %v", m, err)
	}
	agg := sc.end()
	if s := agg[kSend][0]; s.calls != 3 || s.units != 3+2*2 {
		t.Errorf("sends counted %+v, want 3 messages of 7 bytes", s)
	}
	if r := agg[kRecv][1]; r.calls != 2 || r.units != 5 {
		t.Errorf("receives counted %+v, want 2 of 5 bytes", r)
	}
	if tot := tr.total(kSend); tot.calls != 3 {
		t.Errorf("timed totals %+v, want 3 messages", tot)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint(1).Recv(5); !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("Recv after Close = %v, want ErrClosed", err)
	}

	faulty := cluster.NewFaulty(cluster.NewInProc(2, 0), cluster.Plan{Seed: 1})
	defer faulty.Close()
	if _, err := tr.wrapFabric(faulty); err == nil {
		t.Fatal("wrapping a fabric with failure extensions should be refused")
	}
}

// testSizing shrinks a workload for the tests: a smaller graph with the
// block cache shrunk in proportion, so the regime (spill or fit) is kept.
func testSizing(name string) sizing {
	s := sizings[name]
	f := 0.0005 / s.scale
	s.scale = 0.0005
	s.cacheBytes = int64(float64(s.cacheBytes) * f)
	s.probes = 20
	return s
}

func runSmall(t *testing.T, name string, size sizing, traced bool, seed int64, ops int) *result {
	t.Helper()
	b := &bench{workload: name, seed: seed, dir: t.TempDir(), size: size, maxOps: ops}
	if traced {
		b.tr = newTracer()
	}
	r, err := workloads[name](b)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, r.failed, r.attempted, r.wrong)
	}
	return r
}

// counts flattens the work counts a run read from public accessors.
func counts(w work) map[string]int64 {
	return map[string]int64{
		"blockio.reads": w.io.reads, "blockio.writes": w.io.writes,
		"blockio.bytes_read": w.io.bytesRead, "blockio.bytes_written": w.io.bytesWritten,
		"cache.hits": w.io.hits, "cache.misses": w.io.misses,
		"graphdb.adjacency_calls": w.io.adjCalls, "graphdb.neighbors": w.io.neighbors,
		"query.queries": w.queries, "query.levels": w.levels,
		"query.edges_traversed": w.edgesTraversed, "query.vertices_visited": w.verticesVisited,
		"query.fringe_sent": w.fringeSent,
		"ingest.runs":       w.ingests, "ingest.edges_in": w.edgesIn, "ingest.edges_stored": w.edgesStored,
		"ingest.windows": w.windows, "ingest.dup_windows": w.dupWindows, "ingest.retries": w.retries,
	}
}

// TestTracedRunMatchesUntracedWork checks that tracing does not change
// what the program does: for a fixed seed and operation count, every
// work count of the traced run must equal the untraced runs' when those
// repeat exactly. ingest-ooc runs here with one front-end: with its two,
// the order in which their windows reach a back-end depends on timing,
// and block writes varied by 9.5% over eight untraced runs, which would
// hide any change tracing made to the write path. With one front-end
// every count of the test's ingest-ooc run repeats exactly. Counts that
// do depend on timing do not repeat: block reads and cache hits depend on the order fringe
// messages arrive in, and in serve-mixed whether a repeated request
// finds its result cached depends on whether the first copy has
// finished. For those the traced count must lie within the spread of
// six untraced runs: no further outside their range than the range is
// wide (at least 1% of their mean, so runs that happen to agree do not
// demand an exact match).
func TestTracedRunMatchesUntracedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload seven times")
	}
	ingest := testSizing("ingest-ooc")
	ingest.frontEnds = 1
	for _, c := range []struct {
		name string
		size sizing
		ops  int
	}{{"ingest-ooc", ingest, 0}, {"bfs-ooc", testSizing("bfs-ooc"), 6}, {"serve-mixed", testSizing("serve-mixed"), 2}} {
		t.Run(c.name, func(t *testing.T) {
			var untraced []map[string]int64
			for i := 0; i < 6; i++ {
				untraced = append(untraced, counts(runSmall(t, c.name, c.size, false, 11, c.ops).w))
			}
			traced := counts(runSmall(t, c.name, c.size, true, 11, c.ops).w)
			for name, got := range traced {
				lo, hi := untraced[0][name], untraced[0][name]
				var sum int64
				for _, u := range untraced {
					lo, hi = min(lo, u[name]), max(hi, u[name])
					sum += u[name]
				}
				if lo == hi {
					if got != lo {
						t.Errorf("%s: traced %d, untraced runs all %d", name, got, lo)
					}
					continue
				}
				slack := max(hi-lo, sum/int64(len(untraced))/100)
				if got < lo-slack || got > hi+slack {
					t.Errorf("%s: traced %d outside the untraced spread [%d, %d] ± %d", name, got, lo, hi, slack)
				}
			}
		})
	}
}
