package ingest

import (
	"io"
	"reflect"
	"sort"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/storage/crashfs"
	"mssg/internal/storage/vfs"
)

// TestIngestCrashResumeSweep is the end-to-end exactly-once check: a
// durable back-end crashes at every Nth filesystem operation mid-ingest,
// restarts on the real filesystem, and has the entire window stream
// re-shipped to it. The final graph must equal the full oracle — nothing
// lost, nothing stored twice — at every crash point.
func TestIngestCrashResumeSweep(t *testing.T) {
	const numWindows = 8
	window := func(seq int) []byte {
		v := graph.VertexID(seq)
		return encodeWindow(0, uint64(seq), []graph.Edge{
			{Src: v, Dst: graph.VertexID(100 + seq)},
			{Src: v, Dst: graph.VertexID(200 + seq)},
		})
	}
	opts := func(dir string, fsys vfs.FS) graphdb.Options {
		return graphdb.Options{
			Dir:          dir,
			MaxFileBytes: 4096,
			Levels: []graphdb.LevelSpec{
				{SubBlockCap: 2, BlockBytes: 256},
				{SubBlockCap: 4, BlockBytes: 256},
				{SubBlockCap: 8, BlockBytes: 256},
			},
			Durability: graphdb.DurabilityFull,
			FS:         fsys,
		}
	}
	runUntilCrash := func(db graphdb.Graph) {
		sf := &storeFilter{cfg: Config{Durable: true, CheckpointWindows: 2}, db: db, stats: &Stats{}}
		if err := sf.Init(nil); err != nil {
			return
		}
		for seq := 1; seq <= numWindows; seq++ {
			if err := sf.apply(window(seq)); err != nil {
				return
			}
		}
		sf.Finalize(nil)
	}

	// Dry run to size the sweep.
	cfs := crashfs.New(vfs.OS)
	db, err := grdb.Open(opts(t.TempDir(), cfs))
	if err != nil {
		t.Fatal(err)
	}
	runUntilCrash(db)
	db.Close()
	total := cfs.Ops()
	stride := total/16 + 1
	if testing.Short() {
		stride = total/4 + 1
	}
	t.Logf("sweeping %d ops, stride %d", total, stride)

	for k := int64(1); k <= total; k += stride {
		dir := t.TempDir()
		cfs := crashfs.New(vfs.OS)
		cfs.SetCrashPoint(k, crashfs.Policy(int(k)%4))
		if db, err := grdb.Open(opts(dir, cfs)); err == nil {
			runUntilCrash(db)
		}
		cfs.Shutdown()

		// Restart: reopen on the real filesystem and re-ship everything.
		db2, err := grdb.Open(opts(dir, nil))
		if err != nil {
			t.Fatalf("crash@%d: reopen: %v", k, err)
		}
		stats := &Stats{}
		sf := &storeFilter{cfg: Config{Durable: true, CheckpointWindows: 2}, db: db2, stats: stats}
		if err := sf.Init(nil); err != nil {
			t.Fatalf("crash@%d: init: %v", k, err)
		}
		for seq := 1; seq <= numWindows; seq++ {
			if err := sf.apply(window(seq)); err != nil {
				t.Fatalf("crash@%d: re-ship window %d: %v", k, seq, err)
			}
		}
		if err := sf.Finalize(nil); err != nil {
			t.Fatalf("crash@%d: finalize: %v", k, err)
		}

		for seq := 1; seq <= numWindows; seq++ {
			out := graph.NewAdjList(8)
			if err := graphdb.Adjacency(db2, graph.VertexID(seq), out); err != nil {
				t.Fatalf("crash@%d: adjacency(%d): %v", k, seq, err)
			}
			got := append([]graph.VertexID(nil), out.IDs()...)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			want := []graph.VertexID{graph.VertexID(100 + seq), graph.VertexID(200 + seq)}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("crash@%d: vertex %d adjacency = %v, want %v (lost or duplicated edges)", k, seq, got, want)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("crash@%d: close: %v", k, err)
		}
	}
}

// TestIngestCrashResumeSweepBatched repeats the crash-resume sweep with
// the batching Process path: CheckpointWindows 4 makes each StoreEdges
// call carry several windows (and freshly created chain blocks), and the
// crash can land anywhere inside a batch's store or its checkpoint. After
// restart the whole stream is re-shipped through Process; the graph must
// equal the oracle exactly.
func TestIngestCrashResumeSweepBatched(t *testing.T) {
	const numWindows = 14
	window := func(seq int) []graph.Edge {
		v := graph.VertexID(seq % 5)
		return []graph.Edge{
			{Src: v, Dst: graph.VertexID(100 + seq)},
			{Src: v, Dst: graph.VertexID(200 + seq)},
			{Src: 0, Dst: graph.VertexID(300 + seq)}, // hub: climbs the ladder
		}
	}
	want := make(map[graph.VertexID][]graph.VertexID)
	for seq := 1; seq <= numWindows; seq++ {
		for _, e := range window(seq) {
			want[e.Src] = append(want[e.Src], e.Dst)
		}
	}
	for _, ids := range want {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	opts := func(dir string, fsys vfs.FS) graphdb.Options {
		return graphdb.Options{
			Dir:          dir,
			MaxFileBytes: 4096,
			Levels: []graphdb.LevelSpec{
				{SubBlockCap: 2, BlockBytes: 256},
				{SubBlockCap: 4, BlockBytes: 256},
				{SubBlockCap: 8, BlockBytes: 256},
			},
			Durability: graphdb.DurabilityFull,
			FS:         fsys,
		}
	}
	ship := func(db graphdb.Graph) error {
		sf := &storeFilter{cfg: Config{Durable: true, CheckpointWindows: 4}, db: db, stats: &Stats{}}
		if err := sf.Init(nil); err != nil {
			return err
		}
		seq := 0
		err := sf.process(func() ([]byte, error) {
			if seq == numWindows {
				return nil, io.EOF
			}
			seq++
			return encodeWindow(0, uint64(seq), window(seq)), nil
		})
		if err != nil {
			return err
		}
		return sf.Finalize(nil)
	}

	// Dry run to size the sweep.
	cfs := crashfs.New(vfs.OS)
	db, err := grdb.Open(opts(t.TempDir(), cfs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ship(db); err != nil {
		t.Fatal(err)
	}
	db.Close()
	total := cfs.Ops()
	stride := int64(1) // every operation: the sweep is small
	if testing.Short() {
		stride = total/4 + 1
	}
	t.Logf("sweeping %d ops, stride %d", total, stride)

	for k := int64(1); k <= total; k += stride {
		dir := t.TempDir()
		cfs := crashfs.New(vfs.OS)
		cfs.SetCrashPoint(k, crashfs.Policy(int(k)%4))
		if db, err := grdb.Open(opts(dir, cfs)); err == nil {
			ship(db)
		}
		cfs.Shutdown()

		db2, err := grdb.Open(opts(dir, nil))
		if err != nil {
			t.Fatalf("crash@%d: reopen: %v", k, err)
		}
		if err := ship(db2); err != nil {
			t.Fatalf("crash@%d: re-ship: %v", k, err)
		}
		for v, w := range want {
			out := graph.NewAdjList(8)
			if err := graphdb.Adjacency(db2, v, out); err != nil {
				t.Fatalf("crash@%d: adjacency(%d): %v", k, v, err)
			}
			got := append([]graph.VertexID(nil), out.IDs()...)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("crash@%d: vertex %d adjacency = %v, want %v (lost or duplicated edges)", k, v, got, w)
			}
		}
		if _, err := db2.Check(); err != nil {
			t.Fatalf("crash@%d: check: %v", k, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("crash@%d: close: %v", k, err)
		}
	}
}
