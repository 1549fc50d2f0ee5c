package ingest

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/graphdb/hashdb"
)

// randomWindowStream builds a shipped-window stream from up to three
// front-ends. About a fifth of the entries re-ship an earlier window:
// half of those repeat one of the last three (so usually land in the
// same batch), the rest any earlier window (usually an earlier batch).
func randomWindowStream(rng *rand.Rand) (stream [][]byte, maxSrc graph.VertexID) {
	var seqs [3]uint64
	n := 1 + rng.Intn(150)
	for len(stream) < n {
		if len(stream) > 0 && rng.Intn(5) == 0 {
			i := rng.Intn(len(stream))
			if rng.Intn(2) == 0 {
				i = max(0, len(stream)-1-rng.Intn(3))
			}
			stream = append(stream, stream[i])
			continue
		}
		fe := rng.Intn(3)
		seqs[fe]++
		edges := make([]graph.Edge, 1+rng.Intn(30))
		for i := range edges {
			src := graph.VertexID(rng.Intn(40))
			if rng.Intn(4) == 0 {
				src = 0 // a hub, so chains climb the ladder
			}
			edges[i] = graph.Edge{Src: src, Dst: graph.VertexID(rng.Intn(1000))}
			maxSrc = max(maxSrc, src)
		}
		stream = append(stream, encodeWindow(uint32(fe), seqs[fe], edges))
	}
	return stream, maxSrc
}

// batchBackend opens one database kind for the batching property test.
type batchBackend struct {
	name    string
	durable bool
	open    func(t *testing.T) graphdb.Graph
}

func batchBackends() []batchBackend {
	openGrdb := func(o graphdb.Options) func(t *testing.T) graphdb.Graph {
		return func(t *testing.T) graphdb.Graph {
			o.Dir = t.TempDir()
			o.MaxFileBytes = 4096
			o.CacheBytes = 2048 // far below the data: created blocks get evicted
			o.Levels = []graphdb.LevelSpec{
				{SubBlockCap: 2, BlockBytes: 256},
				{SubBlockCap: 4, BlockBytes: 256},
				{SubBlockCap: 8, BlockBytes: 256},
			}
			db, err := grdb.Open(o)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
	}
	return []batchBackend{
		{name: "grdb", open: openGrdb(graphdb.Options{})},
		{name: "grdb-compress", open: openGrdb(graphdb.Options{Compress: true})},
		{name: "grdb-durable", durable: true, open: openGrdb(graphdb.Options{Durability: graphdb.DurabilityFull})},
		{name: "hashdb", open: func(*testing.T) graphdb.Graph { return hashdb.New() }},
	}
}

// TestBatchedStoreMatchesOneAtATime: storing a window stream through
// the batching Process path must leave exactly what applying the same
// windows one at a time leaves — per-vertex adjacency in order, stored
// edge, duplicate and replica-window counts, and (durable) the same
// checkpoint cadence and committed dedup-set — for batch bounds of 1 to
// 64 windows.
func TestBatchedStoreMatchesOneAtATime(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream, maxSrc := randomWindowStream(rng)
		cw := 1 + rng.Intn(64)
		for _, b := range batchBackends() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, b.name), func(t *testing.T) {
				run := func(batched bool) (graphdb.Graph, *Stats) {
					db := b.open(t)
					t.Cleanup(func() { db.Close() })
					stats := &Stats{}
					sf := &storeFilter{cfg: Config{Durable: b.durable, CheckpointWindows: cw}, db: db, stats: stats}
					if err := sf.Init(nil); err != nil {
						t.Fatal(err)
					}
					// Classify windows as a 2-way replicated back-end 1 would.
					sf.repl, sf.self = NewRendezvous(4, 2, 0), 1
					if batched {
						next := 0
						err := sf.process(func() ([]byte, error) {
							if next == len(stream) {
								return nil, io.EOF
							}
							next++
							return append([]byte(nil), stream[next-1]...), nil
						})
						if err != nil {
							t.Fatal(err)
						}
					} else {
						for _, w := range stream {
							if err := sf.apply(append([]byte(nil), w...)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := sf.Finalize(nil); err != nil {
						t.Fatal(err)
					}
					return db, stats
				}
				refDB, ref := run(false)
				gotDB, got := run(true)

				// The counts also follow from the stream alone, so a
				// classification both paths skip still shows.
				var wantStored, wantDups, wantReplica int64
				seen := make(map[uint64]bool)
				for _, w := range stream {
					fe, seq, edges, err := decodeWindow(w)
					if err != nil {
						t.Fatal(err)
					}
					if seen[windowKey(fe, seq)] {
						wantDups++
						continue
					}
					seen[windowKey(fe, seq)] = true
					wantStored += int64(len(edges))
					if NewRendezvous(4, 2, 0).Replicas(edges[0].Src)[0] != 1 {
						wantReplica++
					}
				}
				if ref.EdgesStored.Load() != wantStored || ref.DupBlocks.Load() != wantDups ||
					ref.ReplicaWindows.Load() != wantReplica {
					t.Fatalf("one-at-a-time stored/dups/replica = %d/%d/%d, stream has %d/%d/%d",
						ref.EdgesStored.Load(), ref.DupBlocks.Load(), ref.ReplicaWindows.Load(),
						wantStored, wantDups, wantReplica)
				}

				if got.EdgesStored.Load() != ref.EdgesStored.Load() ||
					got.DupBlocks.Load() != ref.DupBlocks.Load() ||
					got.ReplicaWindows.Load() != ref.ReplicaWindows.Load() {
					t.Fatalf("batched stored/dups/replica = %d/%d/%d, one-at-a-time %d/%d/%d",
						got.EdgesStored.Load(), got.DupBlocks.Load(), got.ReplicaWindows.Load(),
						ref.EdgesStored.Load(), ref.DupBlocks.Load(), ref.ReplicaWindows.Load())
				}
				if wantDups == 0 && len(stream) > 20 {
					t.Fatal("stream has no duplicates; the test lost its dedup coverage")
				}
				for v := graph.VertexID(0); v <= maxSrc; v++ {
					want, have := graph.NewAdjList(8), graph.NewAdjList(8)
					if err := graphdb.Adjacency(refDB, v, want); err != nil {
						t.Fatal(err)
					}
					if err := graphdb.Adjacency(gotDB, v, have); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(have.IDs(), want.IDs()) {
						t.Fatalf("vertex %d: batched %v, one-at-a-time %v", v, have.IDs(), want.IDs())
					}
				}
				if b.durable {
					rg, gg := refDB.(graphdb.GenerationReader), gotDB.(graphdb.GenerationReader)
					if rg.Generation() != gg.Generation() {
						t.Fatalf("batched committed %d checkpoints, one-at-a-time %d", gg.Generation(), rg.Generation())
					}
					rb, _ := refDB.(graphdb.Checkpointer).GetCheckpoint()
					gb, _ := gotDB.(graphdb.Checkpointer).GetCheckpoint()
					if !reflect.DeepEqual(rb, gb) {
						t.Fatal("committed dedup-sets differ")
					}
				}
			})
		}
	}
}
