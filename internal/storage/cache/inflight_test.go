package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedStore blocks every read until gate closes and counts reads.
type gatedStore struct {
	*memStore
	gate  chan struct{}
	reads atomic.Int64
}

func (s *gatedStore) ReadBlock(idx int64, buf []byte) error {
	s.reads.Add(1)
	<-s.gate
	return s.memStore.ReadBlock(idx, buf)
}

// TestConcurrentMissesShareOneRead: readers that miss on a block whose
// read is in flight wait for it instead of reading the block again, so
// the device sees one read however the readers interleave.
func TestConcurrentMissesShareOneRead(t *testing.T) {
	st := &gatedStore{memStore: newMemStore(64), gate: make(chan struct{})}
	st.blocks[3] = []byte{42}
	c := New(1 << 10)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := c.Get(0, 3)
			if err != nil {
				errs <- err
				return
			}
			if h.Data()[0] != 42 {
				t.Errorf("reader saw byte %d, want 42", h.Data()[0])
			}
			errs <- h.Release()
		}()
	}
	// The assertions hold however late a reader arrives (it then hits);
	// the pause only makes it likely that every reader finds the read in
	// flight, which is the case under test.
	for st.reads.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(st.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := st.reads.Load(); n != 1 {
		t.Fatalf("%d device reads for one block, want 1", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != readers-1 || s.Pinned != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, nothing pinned", s, readers-1)
	}
}
