package grdb

import (
	"fmt"
	"slices"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// StoreEdges implements graphdb.Graph. Edges are grouped by source so each
// vertex's chain is walked once per batch; within a chain, appends go to
// the first empty slot (found by binary search) and overflow allocates a
// sub-block at the next level, exactly as §3.4.1 describes (the prototype
// "links on overflow" rather than copying up; see Defragment for the
// copy-up compaction it defers to idle time).
func (d *DB) StoreEdges(edges []graph.Edge) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if len(edges) == 0 {
		return nil
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveStore(start)
	// Group with a counting sort: count each source, lay the sources out
	// in ascending order, then drop every destination into its source's
	// next slot. The sort is stable, so each vertex's neighbours keep
	// their input order, and the grouped ids fill one exact-size slice.
	next := make(map[graph.VertexID]int)
	for _, e := range edges {
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
		if uint64(e.Src) > maxStoreable || uint64(e.Dst) > maxStoreable {
			return fmt.Errorf("grdb: vertex id beyond 61-bit storeable range: %v", e)
		}
		next[e.Src]++
	}
	srcs := make([]graph.VertexID, 0, len(next))
	for v := range next {
		srcs = append(srcs, v)
	}
	slices.Sort(srcs)
	off := 0
	for _, v := range srcs {
		n := next[v]
		next[v] = off
		off += n
	}
	ids := make([]graph.VertexID, len(edges))
	for _, e := range edges {
		ids[next[e.Src]] = e.Dst
		next[e.Src]++
	}
	lo := 0
	for _, src := range srcs {
		hi := next[src]
		if err := d.appendNeighbors(src, ids[lo:hi]); err != nil {
			return err
		}
		d.stats.AddEdgesStored(int64(hi - lo))
		if src > d.maxVertex {
			d.maxVertex = src
		}
		lo = hi
	}
	return nil
}

// appendNeighbors walks v's chain to its tail and appends ids, overflowing
// into higher levels as sub-blocks fill. A tail hint (when present) lets
// the walk start at the last known tail instead of level 0. In link mode
// (the prototype's choice) an overflowing sub-block keeps its contents
// and points to the new one; in copy-up mode (§3.4.1's alternative) its
// contents move into the new sub-block and the parent pointer is
// redirected, keeping every chain at most level-0 → tail until the top
// level.
func (d *DB) appendNeighbors(v graph.VertexID, ids []graph.VertexID) error {
	ℓ, s := 0, int64(v)
	if !d.copyUp {
		if hint, ok := d.tailHint[v]; ok {
			ℓ, s = hint.level, hint.sub
		}
		defer func() {
			d.tailHint[v] = tailPos{level: ℓ, sub: s}
		}()
	}
	// parent tracks the sub-block whose last slot points at (ℓ, s); the
	// sentinel level -1 means (ℓ, s) is the level-0 anchor itself.
	parent := tailPos{level: -1}
	for len(ids) > 0 {
		h, sub, err := d.subBlock(ℓ, s)
		if err != nil {
			return err
		}
		capSlots := d.levels[ℓ].d
		fill := fillPoint(sub)

		// A full sub-block whose last word is a pointer: follow it.
		if fill == capSlots {
			if last := getWord(sub, capSlots-1); isPointer(last) {
				if err := h.Release(); err != nil {
					return err
				}
				parent = tailPos{level: ℓ, sub: s}
				ℓ, s = decodePointer(last)
				if ℓ >= len(d.levels) {
					return fmt.Errorf("grdb: pointer to level %d beyond ladder", ℓ)
				}
				continue
			}
		}

		// Append into free slots.
		for len(ids) > 0 && fill < capSlots {
			setWord(sub, fill, encodeNeighbor(ids[0]))
			ids = ids[1:]
			fill++
		}
		if len(ids) == 0 {
			h.MarkDirty()
			return h.Release()
		}

		nl := d.nextLevel(ℓ)
		if d.copyUp && ℓ > 0 && nl != ℓ {
			// Copy-up: move this sub-block's contents into a fresh,
			// larger sub-block (d_{ℓ+1} >= 2·d_ℓ guarantees room), then
			// redirect the parent pointer and abandon the old sub-block.
			newSub, err := d.allocSub(nl)
			if err != nil {
				h.Release()
				return err
			}
			moved := make([]graph.VertexID, capSlots)
			for i := 0; i < capSlots; i++ {
				moved[i] = decodeNeighbor(getWord(sub, i))
			}
			if err := h.Release(); err != nil {
				return err
			}
			nh, nsub, err := d.subBlock(nl, newSub)
			if err != nil {
				return err
			}
			for i, u := range moved {
				setWord(nsub, i, encodeNeighbor(u))
			}
			nh.MarkDirty()
			if err := nh.Release(); err != nil {
				return err
			}
			// Redirect the parent (level 0 anchor when parent is the
			// sentinel — then the anchor's own last slot is the pointer).
			pl, ps := parent.level, parent.sub
			if pl < 0 {
				pl, ps = 0, int64(v)
			}
			ph, psub, err := d.subBlock(pl, ps)
			if err != nil {
				return err
			}
			setWord(psub, d.levels[pl].d-1, encodePointer(nl, newSub))
			ph.MarkDirty()
			if err := ph.Release(); err != nil {
				return err
			}
			parent = tailPos{level: pl, sub: ps}
			ℓ, s = nl, newSub
			continue
		}

		// Link: evict the last neighbour into a freshly allocated
		// sub-block at the next level and replace it with the
		// continuation pointer.
		newSub, err := d.allocSub(nl)
		if err != nil {
			h.Release()
			return err
		}
		evicted := decodeNeighbor(getWord(sub, capSlots-1))
		setWord(sub, capSlots-1, encodePointer(nl, newSub))
		h.MarkDirty()
		if err := h.Release(); err != nil {
			return err
		}
		ids = append([]graph.VertexID{evicted}, ids...)
		parent = tailPos{level: ℓ, sub: s}
		ℓ, s = nl, newSub
	}
	return nil
}

// walkAdjacency streams v's neighbours in storage order.
func (d *DB) walkAdjacency(v graph.VertexID, visit func(u graph.VertexID)) error {
	ℓ, s := 0, int64(v)
	for {
		h, sub, err := d.subBlock(ℓ, s)
		if err != nil {
			return err
		}
		capSlots := d.levels[ℓ].d
		fill := fillPoint(sub)
		if fill == 0 {
			return h.Release()
		}
		n := fill
		var next uint64
		if fill == capSlots {
			if last := getWord(sub, capSlots-1); isPointer(last) {
				n = capSlots - 1
				next = last
			}
		}
		for i := 0; i < n; i++ {
			visit(decodeNeighbor(getWord(sub, i)))
		}
		if err := h.Release(); err != nil {
			return err
		}
		if next == 0 {
			return nil
		}
		ℓ, s = decodePointer(next)
		if ℓ >= len(d.levels) {
			return fmt.Errorf("grdb: pointer to level %d beyond ladder", ℓ)
		}
	}
}

// Metadata implements graphdb.Graph.
func (d *DB) Metadata(v graph.VertexID) (int32, error) {
	if d.closed {
		return 0, graphdb.ErrClosed
	}
	return d.meta.Get(v), nil
}

// SetMetadata implements graphdb.Graph.
func (d *DB) SetMetadata(v graph.VertexID, md int32) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	d.meta.Set(v, md)
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if uint64(v) > maxStoreable {
		return fmt.Errorf("grdb: vertex id %d beyond 61-bit storeable range", v)
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveAdjacency(start)
	d.stats.AddAdjacencyCall()
	if op == graphdb.MetaIgnore {
		var n int64
		err := d.walkAdjacency(v, func(u graph.VertexID) {
			out.Append(u)
			n++
		})
		d.stats.AddNeighborsReturned(n)
		return err
	}
	var n int64
	err := d.walkAdjacency(v, func(u graph.VertexID) {
		if op.Matches(d.meta.Get(u), md) {
			out.Append(u)
			n++
		}
	})
	d.stats.AddNeighborsReturned(n)
	return err
}

// Degree returns v's stored out-degree (chain walk).
func (d *DB) Degree(v graph.VertexID) (int64, error) {
	if d.closed {
		return 0, graphdb.ErrClosed
	}
	var n int64
	err := d.walkAdjacency(v, func(graph.VertexID) { n++ })
	return n, err
}

// ChainLength returns the number of sub-blocks in v's chain (1 when the
// adjacency fits at level 0; 0 for unknown vertices). Used by the
// defragmentation ablation.
func (d *DB) ChainLength(v graph.VertexID) (int, error) {
	if d.closed {
		return 0, graphdb.ErrClosed
	}
	ℓ, s := 0, int64(v)
	hops := 0
	for {
		h, sub, err := d.subBlock(ℓ, s)
		if err != nil {
			return 0, err
		}
		capSlots := d.levels[ℓ].d
		fill := fillPoint(sub)
		if fill == 0 {
			err := h.Release()
			return hops, err
		}
		hops++
		var next uint64
		if fill == capSlots {
			if last := getWord(sub, capSlots-1); isPointer(last) {
				next = last
			}
		}
		if err := h.Release(); err != nil {
			return 0, err
		}
		if next == 0 {
			return hops, nil
		}
		ℓ, s = decodePointer(next)
	}
}

// Flush implements graphdb.Graph. In durable mode it is an atomic
// checkpoint: when it returns nil, every edge stored and checkpoint
// blob staged before the call survives any crash (see durable.go).
func (d *DB) Flush() error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if d.durable {
		return d.checkpoint()
	}
	if err := d.flushCache(); err != nil {
		return err
	}
	if err := d.saveManifest(); err != nil {
		return err
	}
	d.ckptCommitted = d.ckptStaged
	return nil
}

// flushCache writes back this instance's dirty blocks. On a shared
// cache only this instance's spaces are flushed — co-tenants commit
// their own writes.
func (d *DB) flushCache() error {
	if !d.sharedCache {
		return d.cache.Flush()
	}
	for _, l := range d.levels {
		if err := d.cache.FlushSpace(l.space); err != nil {
			return err
		}
	}
	return nil
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.closed {
		return nil
	}
	// Cancel and join every in-flight prefetch before touching the
	// stores: Wait()'s contract guarantees no prefetch goroutine
	// outlives the instance.
	d.pf.drain()
	if err := d.Flush(); err != nil {
		return err
	}
	d.closed = true
	var first error
	for _, l := range d.levels {
		if d.sharedCache {
			// Give the spaces back to the caller's cache (writes back any
			// dirty blocks the flush raced with; there are none after a
			// clean Flush, but the invariant costs nothing).
			if err := d.cache.RemoveSpace(l.space); err != nil && first == nil {
				first = err
			}
		}
		if err := l.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats implements graphdb.Graph.
func (d *DB) Stats() graphdb.Stats { return d.stats.Snapshot() }

// Generation implements graphdb.GenerationReader: the manifest
// generation, bumped by every Flush (and checkpoint commit), read
// through an atomic mirror so query admission can pin it while ingest
// proceeds on another goroutine.
func (d *DB) Generation() uint64 { return d.genMirror.Load() }

// ConcurrentReaders implements graphdb.Graph: walkAdjacency and the
// metadata path read index words and chain blocks through the
// mutex-guarded block cache without touching the write-side state
// (tail hints, free lists), so any number of goroutines may expand
// fringe vertices at once.
func (d *DB) ConcurrentReaders() bool { return true }

// IOCounters implements graphdb.IOCounters, summing all levels.
func (d *DB) IOCounters() (blockReads, blockWrites int64) {
	for _, l := range d.levels {
		c := l.store.Counters()
		blockReads += c.BlockReads
		blockWrites += c.BlockWrites
	}
	return blockReads, blockWrites
}

// IOBytes reports physical bytes moved to and from the backing stores,
// summing all levels. With compression enabled this is smaller than
// block-count × block-size accounting suggests — compressed payloads
// and hinted prefix reads move only the bytes that exist.
func (d *DB) IOBytes() (bytesRead, bytesWritten int64) {
	for _, l := range d.levels {
		c := l.store.Counters()
		bytesRead += c.BytesRead
		bytesWritten += c.BytesWritten
	}
	return bytesRead, bytesWritten
}

// CacheStats implements graphdb.CacheStats.
func (d *DB) CacheStats() (hits, misses int64) {
	s := d.cache.Stats()
	return s.Hits, s.Misses
}

// ResetMetadata clears all metadata between queries.
func (d *DB) ResetMetadata() { d.meta.Reset() }
