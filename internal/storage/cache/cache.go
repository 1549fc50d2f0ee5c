// Package cache implements grDB's block cache component (paper §3.4.1): a
// byte-budgeted, write-back block cache over one or more block stores
// ("spaces" — grDB registers one space per storage level, since levels
// have different block sizes).
//
// Two replacement policies are available:
//
//   - PolicyLRU (the default, New): one recency list, exactly the paper's
//     per-instance cache.
//   - PolicySLRU (NewWithPolicy): a scan-resistant segmented LRU in the
//     2Q family. New blocks are admitted to a probationary segment; only
//     a re-reference promotes a block into the protected segment (capped
//     at protectedFraction of the budget), and a ghost list of recently
//     rejected keys lets a block whose reuse distance slightly exceeds
//     probation re-enter directly into the protected segment. A
//     StreamDB-style sequential scan touches every block exactly once,
//     so its blocks live and die in probation and can never displace a
//     concurrently re-referenced working set — the property the shared
//     cross-query cache mode depends on (DESIGN.md §13).
//
// Entries are pinned while a caller holds a Handle; pinned entries are
// never evicted. With a zero byte budget every access misses and unpinned
// entries are written back and dropped immediately, which is exactly the
// "cache disabled" configuration of the paper's Figure 5.2 experiment.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mssg/internal/obs"
)

// Store is the backing storage for one space. *blockio.Store satisfies it.
type Store interface {
	BlockSize() int
	ReadBlock(idx int64, buf []byte) error
	WriteBlock(idx int64, buf []byte) error
}

// Policy selects the replacement policy of a BlockCache.
type Policy int

const (
	// PolicyLRU is a single recency list (the historical behaviour).
	PolicyLRU Policy = iota
	// PolicySLRU is the scan-resistant segmented LRU described in the
	// package comment.
	PolicySLRU
)

func (p Policy) String() string {
	if p == PolicySLRU {
		return "slru"
	}
	return "lru"
}

// protectedFraction is the share of the byte budget the protected
// segment may occupy under PolicySLRU (the classic SLRU split).
const (
	protectedNum = 3
	protectedDen = 4
)

// ghostMin is the minimum ghost-list length (entries, not bytes); the
// ghost list otherwise tracks the resident entry count.
const ghostMin = 32

// Stats counts cache activity since creation, plus an instantaneous
// view of the pin/residency state. The whole struct is snapshotted
// under the same mutex that guards pin updates, so the fields form one
// consistent cut: Pinned can never exceed the number of resident
// entries, and a caller that has released every handle always observes
// Pinned == 0.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
	// Promotions counts probation→protected moves (PolicySLRU only): a
	// resident block re-referenced while on probation.
	Promotions int64
	// Demotions counts protected→probation moves made to keep the
	// protected segment under its cap (PolicySLRU only).
	Demotions int64
	// GhostHits counts misses whose key was on the ghost list and were
	// therefore admitted directly to the protected segment (PolicySLRU
	// only).
	GhostHits int64
	// Creates counts blocks admitted zero-filled by Create, without a
	// read of the backing store.
	Creates int64
	// AdmissionRejects counts blocks evicted from probation without ever
	// being promoted (PolicySLRU only) — the policy declined to admit
	// them to the protected set. A sequential scan shows up here, not in
	// Evictions of the working set.
	AdmissionRejects int64
	// Pinned is the number of entries with at least one outstanding
	// Handle at snapshot time.
	Pinned int64
	// Resident is the resident byte count at snapshot time (same value
	// as Size).
	Resident int64
	// ProtectedBytes / ProbationBytes split Resident by segment at
	// snapshot time (PolicyLRU keeps everything in probation).
	ProtectedBytes int64
	ProbationBytes int64
}

type key struct {
	space uint32
	block int64
}

// segment identifies which recency list an entry lives on.
type segment int8

const (
	segProbation segment = iota
	segProtected
)

type entry struct {
	key   key
	buf   []byte
	dirty bool
	pins  int
	seg   segment
	// promoted records whether the entry ever reached the protected
	// segment; an unpromoted probation eviction is an admission reject.
	promoted bool
	// created marks an entry made by Create and not yet looked up: that
	// first lookup stands in for the miss a read would have been, so it
	// does not promote.
	created bool
	// LRU list links (nil sentinels at list ends).
	prev, next *entry
}

// list is one doubly linked recency list with sentinel head (most
// recent) and tail.
type list struct {
	head, tail *entry
	bytes      int64
}

func newList() *list {
	l := &list{head: &entry{}, tail: &entry{}}
	l.head.next = l.tail
	l.tail.prev = l.head
	return l
}

func (l *list) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.bytes -= int64(len(e.buf))
}

func (l *list) pushFront(e *entry) {
	e.next = l.head.next
	e.prev = l.head
	l.head.next.prev = e
	l.head.next = e
	l.bytes += int64(len(e.buf))
}

// BlockCache is a write-back block cache (see the package comment for
// the policies).
type BlockCache struct {
	mu       sync.Mutex
	policy   Policy
	capacity int64
	size     int64
	spaces   map[uint32]Store
	// nextSpace is the lowest id AddSpace has not handed out yet.
	nextSpace uint32
	entries   map[key]*entry
	// loading holds the block reads in flight; each channel closes when
	// its read finishes.
	loading map[key]chan struct{}
	// prob holds probationary entries; under PolicyLRU it is the only
	// list. prot holds protected entries (PolicySLRU).
	prob, prot *list
	// ghost remembers keys recently rejected from probation (PolicySLRU):
	// a FIFO of at most max(ghostMin, len(entries)) keys.
	ghost     map[key]struct{}
	ghostFIFO []key
	// pinned counts entries with pins > 0; maintained by the same
	// critical sections that change entry.pins so Stats() can report it
	// without scanning.
	pinned int64
	stats  Stats

	// noSteal, when set, forbids writing dirty blocks back to the
	// backing store outside an explicit Flush: eviction skips dirty
	// victims (overshooting the budget if necessary) and zero-budget
	// release keeps dirty entries resident. Durable backends rely on
	// this — a dirty block must not reach its data file before the
	// write-ahead log holding its image is synced (DESIGN.md §11).
	noSteal bool

	// Mirror counters, nil until EnableMetrics (obs counters are nil-safe
	// no-ops). Shared by label, so every cache instance opened under the
	// same label — one per backend node — accumulates into one global
	// hit/miss view.
	mHits, mMisses, mEvictions, mWriteBacks    *obs.Counter
	mPromotions, mGhostHits, mAdmissionRejects *obs.Counter
	mCreates                                   *obs.Counter
}

// EnableMetrics mirrors the cache's counters into reg under
// cache.<label>.{hits,misses,evictions,writebacks,promotions,ghost_hits,
// admission_rejects,creates}, plus pull-mode per-segment byte gauges
// (protected_bytes / probation_bytes). Counters are shared across
// instances with the same label; the segment gauges report the LAST
// instance registered under the label (a shared cross-query cache is one
// instance per process, which is the intended use).
func (c *BlockCache) EnableMetrics(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := "cache." + label
	c.mHits = reg.Counter(p + ".hits")
	c.mMisses = reg.Counter(p + ".misses")
	c.mEvictions = reg.Counter(p + ".evictions")
	c.mWriteBacks = reg.Counter(p + ".writebacks")
	c.mPromotions = reg.Counter(p + ".promotions")
	c.mGhostHits = reg.Counter(p + ".ghost_hits")
	c.mAdmissionRejects = reg.Counter(p + ".admission_rejects")
	c.mCreates = reg.Counter(p + ".creates")
	reg.RegisterFunc(p+".protected_bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.prot.bytes
	})
	reg.RegisterFunc(p+".probation_bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.prob.bytes
	})
}

// New creates a PolicyLRU cache with the given byte budget. A budget of
// 0 disables caching (every access goes to the backing store).
func New(capacityBytes int64) *BlockCache {
	return NewWithPolicy(capacityBytes, PolicyLRU)
}

// NewWithPolicy creates a cache with an explicit replacement policy.
// The shared cross-query cache uses PolicySLRU so one scan cannot evict
// a concurrent query's working set.
func NewWithPolicy(capacityBytes int64, policy Policy) *BlockCache {
	return &BlockCache{
		policy:   policy,
		capacity: capacityBytes,
		spaces:   make(map[uint32]Store),
		entries:  make(map[key]*entry),
		loading:  make(map[key]chan struct{}),
		prob:     newList(),
		prot:     newList(),
		ghost:    make(map[key]struct{}),
	}
}

// Policy reports the cache's replacement policy.
func (c *BlockCache) Policy() Policy { return c.policy }

// Capacity returns the byte budget the cache was created with.
func (c *BlockCache) Capacity() int64 { return c.capacity }

// AttachSpace registers a backing store under a space id. Each space must
// be attached exactly once before use.
func (c *BlockCache) AttachSpace(space uint32, s Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.spaces[space]; dup {
		return fmt.Errorf("cache: space %d already attached", space)
	}
	c.spaces[space] = s
	if space >= c.nextSpace {
		c.nextSpace = space + 1
	}
	return nil
}

// AddSpace registers a backing store under the next unused space id and
// returns the id. A cache shared by several database instances hands
// each caller disjoint ids this way, so their blocks can never collide.
func (c *BlockCache) AddSpace(s Store) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	space := c.nextSpace
	c.nextSpace++
	c.spaces[space] = s
	return space, nil
}

// RemoveSpace flushes and drops every entry of the space, then detaches
// its store — the inverse of AddSpace, used when a database instance
// sharing this cache closes. It fails if any of the space's entries is
// still pinned.
func (c *BlockCache) RemoveSpace(space uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	store, ok := c.spaces[space]
	if !ok {
		return fmt.Errorf("cache: space %d not attached", space)
	}
	for k, e := range c.entries {
		if k.space != space {
			continue
		}
		if e.pins > 0 {
			return fmt.Errorf("cache: space %d block %d still pinned", space, k.block)
		}
		if e.dirty {
			if err := store.WriteBlock(k.block, e.buf); err != nil {
				return err
			}
			c.stats.WriteBacks++
			c.mWriteBacks.Inc()
		}
		c.listOf(e).unlink(e)
		delete(c.entries, k)
		c.size -= int64(len(e.buf))
	}
	delete(c.spaces, space)
	return nil
}

func (c *BlockCache) listOf(e *entry) *list {
	if e.seg == segProtected {
		return c.prot
	}
	return c.prob
}

// SetNoSteal switches the cache's write-back policy; see the noSteal
// field. Call before use; not synchronized with concurrent access.
func (c *BlockCache) SetNoSteal(on bool) { c.noSteal = on }

// protectedCap is the protected segment's byte budget.
func (c *BlockCache) protectedCap() int64 {
	return c.capacity * protectedNum / protectedDen
}

// touchLocked records a hit on a resident entry: PolicyLRU moves it to
// the front; PolicySLRU additionally promotes probation entries into the
// protected segment.
func (c *BlockCache) touchLocked(e *entry) {
	if c.policy == PolicySLRU && e.seg == segProbation && !e.created {
		c.prob.unlink(e)
		e.seg = segProtected
		e.promoted = true
		c.prot.pushFront(e)
		c.stats.Promotions++
		c.mPromotions.Inc()
		c.rebalanceLocked()
		return
	}
	e.created = false
	l := c.listOf(e)
	l.unlink(e)
	l.pushFront(e)
}

// admitLocked inserts a freshly loaded entry according to the policy.
func (c *BlockCache) admitLocked(e *entry) {
	if c.policy == PolicySLRU {
		if _, ok := c.ghost[e.key]; ok {
			c.ghostForget(e.key)
			e.seg = segProtected
			e.promoted = true
			c.prot.pushFront(e)
			c.stats.GhostHits++
			c.mGhostHits.Inc()
			c.rebalanceLocked()
			return
		}
	}
	e.seg = segProbation
	c.prob.pushFront(e)
}

// rebalanceLocked demotes protected LRU entries to probation until the
// protected segment fits its cap. Demotion never writes or drops data,
// so pinned entries may be demoted safely.
func (c *BlockCache) rebalanceLocked() {
	for c.prot.bytes > c.protectedCap() {
		victim := c.prot.tail.prev
		if victim == c.prot.head {
			return
		}
		c.prot.unlink(victim)
		victim.seg = segProbation
		c.prob.pushFront(victim)
		c.stats.Demotions++
	}
}

// ghostRemember records a rejected key, bounding the list to
// max(ghostMin, resident entries).
func (c *BlockCache) ghostRemember(k key) {
	if _, dup := c.ghost[k]; dup {
		return
	}
	c.ghost[k] = struct{}{}
	c.ghostFIFO = append(c.ghostFIFO, k)
	limit := len(c.entries)
	if limit < ghostMin {
		limit = ghostMin
	}
	for len(c.ghostFIFO) > limit {
		old := c.ghostFIFO[0]
		c.ghostFIFO = c.ghostFIFO[1:]
		delete(c.ghost, old)
	}
}

// ghostForget drops k from the ghost list (it was re-admitted).
func (c *BlockCache) ghostForget(k key) {
	delete(c.ghost, k)
	for i, g := range c.ghostFIFO {
		if g == k {
			c.ghostFIFO = append(c.ghostFIFO[:i], c.ghostFIFO[i+1:]...)
			break
		}
	}
}

// victimLocked picks the next evictable entry: probation LRU tail first,
// then (PolicySLRU) protected LRU tail. Returns nil when everything is
// pinned (or dirty under no-steal).
func (c *BlockCache) victimLocked() *entry {
	for _, l := range []*list{c.prob, c.prot} {
		v := l.tail.prev
		for v != l.head {
			if v.pins == 0 && !(c.noSteal && v.dirty) {
				return v
			}
			v = v.prev
		}
	}
	return nil
}

// evictLocked writes back and drops unpinned entries until the cache
// fits its budget. Called with c.mu held.
func (c *BlockCache) evictLocked() error {
	for c.size > c.capacity {
		victim := c.victimLocked()
		if victim == nil {
			// Everything is pinned; allow the overshoot. grDB pins at most
			// a handful of blocks at a time, so this stays bounded.
			return nil
		}
		if err := c.dropLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// dropLocked writes back (if dirty) and removes one entry, maintaining
// the reject/ghost accounting.
func (c *BlockCache) dropLocked(victim *entry) error {
	if victim.dirty {
		store := c.spaces[victim.key.space]
		if err := store.WriteBlock(victim.key.block, victim.buf); err != nil {
			return err
		}
		c.stats.WriteBacks++
		c.mWriteBacks.Inc()
	}
	c.listOf(victim).unlink(victim)
	delete(c.entries, victim.key)
	c.size -= int64(len(victim.buf))
	c.stats.Evictions++
	c.mEvictions.Inc()
	if c.policy == PolicySLRU && !victim.promoted {
		c.stats.AdmissionRejects++
		c.mAdmissionRejects.Inc()
		c.ghostRemember(victim.key)
	}
	return nil
}

// Handle is a pinned reference to a cached block. The block's bytes may be
// read and mutated through Data until Release; mutators must call
// MarkDirty so the block is written back.
type Handle struct {
	c *BlockCache
	e *entry
}

// Data returns the block's bytes. Valid until Release.
func (h *Handle) Data() []byte { return h.e.buf }

// MarkDirty flags the block for write-back.
func (h *Handle) MarkDirty() {
	h.c.mu.Lock()
	h.e.dirty = true
	h.c.mu.Unlock()
}

// Release unpins the block. The handle must not be used afterwards.
func (h *Handle) Release() error {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.e.pins <= 0 {
		return errors.New("cache: release of unpinned handle")
	}
	h.e.pins--
	if h.e.pins == 0 {
		h.c.pinned--
	}
	if h.e.pins == 0 && c0(h.c) {
		// Zero-budget mode: write back and drop immediately — except
		// under no-steal, where dirty entries must stay resident until
		// the next Flush.
		if h.e.dirty && h.c.noSteal {
			return nil
		}
		if h.e.dirty {
			store := h.c.spaces[h.e.key.space]
			if err := store.WriteBlock(h.e.key.block, h.e.buf); err != nil {
				return err
			}
			h.c.stats.WriteBacks++
			h.c.mWriteBacks.Inc()
			h.e.dirty = false
		}
		h.c.listOf(h.e).unlink(h.e)
		delete(h.c.entries, h.e.key)
		h.c.size -= int64(len(h.e.buf))
		h.c.stats.Evictions++
		h.c.mEvictions.Inc()
	}
	return nil
}

func c0(c *BlockCache) bool { return c.capacity <= 0 }

// hitLocked pins a resident entry and records the hit.
func (c *BlockCache) hitLocked(e *entry) *Handle {
	c.stats.Hits++
	c.mHits.Inc()
	c.pinLocked(e)
	c.touchLocked(e)
	return &Handle{c: c, e: e}
}

func (c *BlockCache) pinLocked(e *entry) {
	if e.pins == 0 {
		c.pinned++
	}
	e.pins++
}

// insertLocked admits a new pinned entry for k holding buf, then evicts
// down to the budget.
func (c *BlockCache) insertLocked(k key, buf []byte, dirty bool) (*Handle, error) {
	e := &entry{key: k, buf: buf, pins: 1, dirty: dirty}
	c.pinned++
	c.entries[k] = e
	c.admitLocked(e)
	c.size += int64(len(buf))
	if err := c.evictLocked(); err != nil {
		return nil, err
	}
	return &Handle{c: c, e: e}, nil
}

// Get pins block `block` of space `space`, loading it from the backing
// store on a miss. A miss on a block whose read is already in flight
// waits for that read instead of issuing a second one.
func (c *BlockCache) Get(space uint32, block int64) (*Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store, ok := c.spaces[space]
	if !ok {
		return nil, fmt.Errorf("cache: space %d not attached", space)
	}
	k := key{space: space, block: block}
	for {
		if e, hit := c.entries[k]; hit {
			return c.hitLocked(e), nil
		}
		done, busy := c.loading[k]
		if !busy {
			break
		}
		// The loader inserts the block (or fails, and this caller then
		// reads it itself on the next pass).
		c.mu.Unlock()
		<-done
		c.mu.Lock()
	}
	c.stats.Misses++
	c.mMisses.Inc()
	buf := make([]byte, store.BlockSize())
	done := make(chan struct{})
	c.loading[k] = done
	// Drop the lock during the disk read so other blocks stay accessible.
	c.mu.Unlock()
	err := store.ReadBlock(block, buf)
	c.mu.Lock()
	delete(c.loading, k)
	close(done)
	if err != nil {
		return nil, err
	}
	// Re-check: Create may have made the block meanwhile.
	if e, hit := c.entries[k]; hit {
		c.pinLocked(e)
		c.touchLocked(e)
		return &Handle{c: c, e: e}, nil
	}
	return c.insertLocked(k, buf, false)
}

// Create pins block `block` of space `space` as a zero-filled, dirty
// entry without reading the backing store. The caller asserts the block
// has never been written (a freshly allocated block past the store's
// high-water mark), so its device image is all zeros; the dirty flag
// makes the first write-back extend the store. A block that is already
// resident is pinned as a hit and left as it is.
func (c *BlockCache) Create(space uint32, block int64) (*Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store, ok := c.spaces[space]
	if !ok {
		return nil, fmt.Errorf("cache: space %d not attached", space)
	}
	k := key{space: space, block: block}
	if e, hit := c.entries[k]; hit {
		return c.hitLocked(e), nil
	}
	c.stats.Creates++
	c.mCreates.Inc()
	h, err := c.insertLocked(k, make([]byte, store.BlockSize()), true)
	if h != nil {
		h.e.created = true
	}
	return h, err
}

// Dirty calls fn for every dirty resident block, in (space, block)
// order, under the cache lock. fn must not re-enter the cache. Durable
// backends use this to log block images to their WAL before Flush
// writes the blocks back.
func (c *BlockCache) Dirty(fn func(space uint32, block int64, data []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]key, 0, len(c.entries))
	for k, e := range c.entries {
		if e.dirty {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].space != keys[j].space {
			return keys[i].space < keys[j].space
		}
		return keys[i].block < keys[j].block
	})
	for _, k := range keys {
		if err := fn(k.space, k.block, c.entries[k].buf); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes back every dirty block without evicting anything.
func (c *BlockCache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked(func(uint32) bool { return true })
}

// FlushSpace writes back the dirty blocks of one space only — what a
// database instance sharing this cache calls from its own Flush, so it
// never commits a co-tenant's in-flight writes.
func (c *BlockCache) FlushSpace(space uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked(func(s uint32) bool { return s == space })
}

func (c *BlockCache) flushLocked(want func(space uint32) bool) error {
	for _, e := range c.entries {
		if !e.dirty || !want(e.key.space) {
			continue
		}
		store := c.spaces[e.key.space]
		if err := store.WriteBlock(e.key.block, e.buf); err != nil {
			return err
		}
		e.dirty = false
		c.stats.WriteBacks++
		c.mWriteBacks.Inc()
	}
	return nil
}

// Stats returns a snapshot of the cache counters, taken under the same
// lock that guards pinned-handle updates.
func (c *BlockCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Pinned = c.pinned
	st.Resident = c.size
	st.ProtectedBytes = c.prot.bytes
	st.ProbationBytes = c.prob.bytes
	return st
}

// Size returns the current resident byte count.
func (c *BlockCache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
