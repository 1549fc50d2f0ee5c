package cache

import (
	"testing"

	"mssg/internal/obs"
)

// readCountingStore is a memStore that also counts reads.
type readCountingStore struct {
	*memStore
	reads int
}

func (s *readCountingStore) ReadBlock(idx int64, buf []byte) error {
	s.reads++
	return s.memStore.ReadBlock(idx, buf)
}

func create(t *testing.T, c *BlockCache, space uint32, block int64) {
	t.Helper()
	h, err := c.Create(space, block)
	if err != nil {
		t.Fatalf("Create(%d,%d): %v", space, block, err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateSkipsRead: a created block is zero-filled without touching
// the store, counts as neither hit nor miss, is dirty (the first flush
// writes it), and later lookups hit it.
func TestCreateSkipsRead(t *testing.T) {
	st := &readCountingStore{memStore: newMemStore(64)}
	st.blocks[5] = []byte{9} // stale bytes a read would have returned
	c := New(1 << 10)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.EnableMetrics(reg, "t")
	h, err := c.Create(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range h.Data() {
		if b != 0 {
			t.Fatalf("created block byte %d = %d, want 0", i, b)
		}
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	get(t, c, 0, 5)
	s := c.Stats()
	if st.reads != 0 || s.Creates != 1 || s.Misses != 0 || s.Hits != 1 {
		t.Fatalf("reads=%d stats=%+v, want 0 reads, 1 create, 0 misses, 1 hit", st.reads, s)
	}
	if got := reg.Snapshot().Counters["cache.t.creates"]; got != 1 {
		t.Fatalf("cache.t.creates = %d, want 1", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.writes != 1 || st.blocks[5][0] != 0 {
		t.Fatalf("flush wrote %d blocks (block 5 = %v), want the zeroed block once", st.writes, st.blocks[5])
	}
}

// TestCreateResidentIsHit: creating a block that is already resident
// pins it as a hit and leaves its bytes alone.
func TestCreateResidentIsHit(t *testing.T) {
	st := newMemStore(64)
	c := New(1 << 10)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	dirtyBlock(t, c, 0, 2, 7)
	h, err := c.Create(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Data()[0] != 7 {
		t.Fatalf("Create clobbered a resident block: byte 0 = %d", h.Data()[0])
	}
	if s := c.Stats(); s.Creates != 0 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 0 creates, 1 hit", s)
	}
}

// TestCreateFirstLookupDoesNotPromote: under SLRU the first lookup of a
// created block stands in for the miss a read would have been, so the
// block stays on probation until a genuine second reference.
func TestCreateFirstLookupDoesNotPromote(t *testing.T) {
	c := NewWithPolicy(8*64, PolicySLRU)
	if err := c.AttachSpace(0, newMemStore(64)); err != nil {
		t.Fatal(err)
	}
	create(t, c, 0, 1)
	get(t, c, 0, 1)
	if s := c.Stats(); s.Promotions != 0 || s.ProbationBytes != 64 {
		t.Fatalf("after create + first lookup: %+v", s)
	}
	get(t, c, 0, 1)
	if s := c.Stats(); s.Promotions != 1 || s.ProtectedBytes != 64 {
		t.Fatalf("after second lookup: %+v", s)
	}
}

// TestCreateNoStealKeepsBlock: under no-steal a created block is dirty,
// so eviction must skip it like any other dirty block.
func TestCreateNoStealKeepsBlock(t *testing.T) {
	st := newMemStore(64)
	c := New(64)
	c.SetNoSteal(true)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	create(t, c, 0, 1)
	create(t, c, 0, 2)
	if st.writes != 0 {
		t.Fatalf("no-steal cache wrote %d created blocks before Flush", st.writes)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.writes != 2 {
		t.Fatalf("Flush wrote %d blocks, want 2", st.writes)
	}
}
