package grdb

import (
	"reflect"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// orderedAdjacency returns v's neighbours in storage order.
func orderedAdjacency(t *testing.T, d *DB, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d, v, out); err != nil {
		t.Fatalf("adjacency(%d): %v", v, err)
	}
	return append([]graph.VertexID(nil), out.IDs()...)
}

// TestFreshBlocksSkipDeviceReads loads into an empty database with a
// cache that holds everything: every block above level 0 is freshly
// allocated, so none may be read from the device. The load must still
// pass Check and survive close, reopen and a further append with every
// vertex's neighbours in input order — also under DurabilityFull, where
// the created blocks sit dirty in a no-steal cache until the WAL
// checkpoint.
func TestFreshBlocksSkipDeviceReads(t *testing.T) {
	for _, dur := range []graphdb.DurabilityLevel{graphdb.DurabilityNone, graphdb.DurabilityFull} {
		for _, compress := range []bool{false, true} {
			name := dur.String()
			if compress {
				name += "/compress"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				open := func() *DB {
					d, err := Open(graphdb.Options{
						Dir: dir, Levels: smallLevels(), MaxFileBytes: 4096,
						CacheBytes: 1 << 20, Durability: dur, Compress: compress,
					})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				want := make(map[graph.VertexID][]graph.VertexID)
				store := func(d *DB, edges []graph.Edge) {
					t.Helper()
					if err := d.StoreEdges(edges); err != nil {
						t.Fatal(err)
					}
					for _, e := range edges {
						want[e.Src] = append(want[e.Src], e.Dst)
					}
				}
				verify := func(d *DB, when string) {
					t.Helper()
					if _, err := d.Check(); err != nil {
						t.Fatalf("%s: Check: %v", when, err)
					}
					for v, w := range want {
						if got := orderedAdjacency(t, d, v); !reflect.DeepEqual(got, w) {
							t.Fatalf("%s: vertex %d = %v, want %v", when, v, got, w)
						}
					}
				}

				d := open()
				edges := seedEdges(60)
				store(d, edges[:len(edges)/2])
				store(d, edges[len(edges)/2:])
				for ℓ := 1; ℓ < len(d.levels); ℓ++ {
					if r := d.levels[ℓ].store.Counters().BlockReads; r != 0 {
						t.Errorf("level %d: %d device reads while loading an empty database, want 0", ℓ, r)
					}
				}
				if c := d.cache.Stats().Creates; c == 0 {
					t.Error("cache created no blocks")
				}
				verify(d, "after load")
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}

				d = open()
				defer d.Close()
				verify(d, "after reopen")
				var more []graph.Edge
				for v := 0; v < 60; v += 3 {
					for i := 0; i < 1+v%17; i++ {
						more = append(more, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(500 + v + i)})
					}
				}
				store(d, more)
				verify(d, "after append")
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFreshBlocksSurviveEviction stores with a cache far smaller than
// the data, so created blocks are written back and re-read before their
// sub-blocks fill; the result must match a roomy-cache load exactly.
func TestFreshBlocksSurviveEviction(t *testing.T) {
	edges := seedEdges(80)
	small, roomy := openTiny(t, 512), openTiny(t, 1<<20)
	for lo := 0; lo < len(edges); lo += 97 {
		batch := edges[lo:min(lo+97, len(edges))]
		if err := small.StoreEdges(batch); err != nil {
			t.Fatal(err)
		}
		if err := roomy.StoreEdges(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := small.Check(); err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(0); v < 80; v++ {
		if got, want := orderedAdjacency(t, small, v), orderedAdjacency(t, roomy, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: small cache %v, roomy cache %v", v, got, want)
		}
	}
	if small.cache.Stats().Evictions == 0 {
		t.Fatal("small cache never evicted; the test does not exercise write-back of created blocks")
	}
}
