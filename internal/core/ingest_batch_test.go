package core_test

import (
	"testing"

	"mssg/internal/core"
	"mssg/internal/graphdb"
	"mssg/internal/ingest"
)

// TestIngestIOIsRepeatable: with two front-ends the windows reach each
// back-end in a different interleaving every run, but when a back-end's
// whole share fits one store batch, grDB sees the same edges per vertex
// in one call and does exactly the same block I/O. Two ingests of the
// same stream must therefore report identical IOCounters per back-end.
func TestIngestIOIsRepeatable(t *testing.T) {
	edges := testGraph(t)
	ingestIO := func() [][2]int64 {
		e, err := core.New(core.Config{
			Backends:  4,
			FrontEnds: 2,
			Backend:   "grdb",
			Dir:       t.TempDir(),
			// Small windows make the interleaving vary; the cache is far
			// below the partition, so access order would show in the I/O.
			DBOptions: graphdb.Options{CacheBytes: 32 << 10},
			Ingest:    ingest.Config{AddReverse: true, WindowEdges: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		stats, err := e.IngestEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		if n := stats.Blocks.Load(); n > 4*64 {
			t.Fatalf("%d windows cannot fit one 64-window batch per back-end", n)
		}
		var io [][2]int64
		for _, db := range e.Databases() {
			r, w := db.(graphdb.IOCounters).IOCounters()
			io = append(io, [2]int64{r, w})
		}
		return io
	}
	first, second := ingestIO(), ingestIO()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("back-end %d: (reads, writes) %v then %v", i, first[i], second[i])
		}
	}
}
