// Package grdb implements grDB, the paper's novel out-of-core graph
// database for massive scale-free graphs (§3.4.1, §4.1.6).
//
// A grDB instance has two components: the storage component — multiple
// levels of block files, where a level-ℓ sub-block stores up to d_ℓ
// neighbour IDs — and the block cache component (package storage/cache).
// The level fan-outs grow roughly like the power-law degree distribution
// of the target graphs (the prototype ladder is d = 2, 4, 16, 256, 4K,
// 16K), so low-degree vertices — the vast majority — live entirely in one
// level-0 sub-block, while hub adjacency spills across a short chain of
// exponentially larger sub-blocks.
//
// Vertex v's adjacency list begins in the v-th sub-block of level 0. If v
// has more than d_0 neighbours, the last slot of the level-0 sub-block
// holds a tagged pointer to a sub-block at level 1, and so on up the
// levels; at the top level, chains continue within the level. Storage
// words are 64-bit with the 3 most significant bits reserved as the
// pointer tag (§4.1.6), leaving 61-bit vertex IDs:
//
//	0x0000000000000000              empty slot
//	tag 000, value w > 0            neighbour with ID w-1
//	tag 001, value s                continuation pointer to sub-block s
//
// Because slots fill strictly left to right and no legal word is zero,
// the fill point of a sub-block is found by binary search, and freshly
// allocated (all-zero) blocks need no initialization: the cache creates
// them zero-filled without reading the device.
//
// Sub-block s of level ℓ lives at block s/k_ℓ, file (s/k_ℓ)/N_ℓ, byte
// offset B_ℓ·((s/k_ℓ) mod N_ℓ) + b·d_ℓ·(s mod k_ℓ) — the modulo
// arithmetic of §3.4.1, realized by blockio's file striping plus the
// in-block offset here.
package grdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/compress"
	"mssg/internal/storage/fsutil"
	"mssg/internal/storage/vfs"
	"mssg/internal/storage/wal"
)

func init() {
	graphdb.Register("grdb", func(opts graphdb.Options) (graphdb.Graph, error) {
		return Open(opts)
	})
}

const (
	wordBytes = 8 // b: one vertex ID or pointer per word

	tagShift     = 61
	tagMask      = uint64(7) << tagShift
	valueMask    = ^tagMask
	tagNeighbor  = uint64(0) << tagShift
	tagPointer   = uint64(1) << tagShift
	wordEmpty    = uint64(0)
	maxStoreable = (uint64(1) << tagShift) - 2 // ids are stored as id+1

	// DefaultCacheBytes is the block-cache budget when Options.CacheBytes
	// is zero.
	DefaultCacheBytes = 16 << 20

	// DefaultMaxFileBytes is the paper's M = 256 MB per storage file.
	DefaultMaxFileBytes = 256 << 20

	manifestName = "grdb.manifest"

	// compressedMarkerName marks a database whose level stores hold
	// compressed blocks (Options.Compress). The block encoding is part of
	// the on-disk format, so Open refuses a marker/option mismatch rather
	// than misreading every block.
	compressedMarkerName = "grdb.compressed"
)

// DefaultLevels is the prototype's 6-level ladder (§4.1.6): d_ℓ of 2, 4,
// 16, 256, 4K, 16K with 4 KB blocks on the first four levels and 32 KB /
// 256 KB blocks on the last two.
func DefaultLevels() []graphdb.LevelSpec {
	return []graphdb.LevelSpec{
		{SubBlockCap: 2, BlockBytes: 4 << 10},
		{SubBlockCap: 4, BlockBytes: 4 << 10},
		{SubBlockCap: 16, BlockBytes: 4 << 10},
		{SubBlockCap: 256, BlockBytes: 4 << 10},
		{SubBlockCap: 4 << 10, BlockBytes: 32 << 10},
		{SubBlockCap: 16 << 10, BlockBytes: 256 << 10},
	}
}

// levelStore is the block store a level reads and writes logical blocks
// through: a plain *blockio.Store, or a *compress.Store wrapping one
// when Options.Compress is set. The WAL recovery path and Scrub go
// through the same interface, so both operate on logical block images
// regardless of the on-disk encoding.
type levelStore interface {
	BlockSize() int
	ReadBlock(idx int64, buf []byte) error
	ReadBlockNoVerify(idx int64, buf []byte) error
	WriteBlock(idx int64, buf []byte) error
	Sync() error
	Close() error
	Counters() blockio.Counters
}

// level is one storage level at runtime.
type level struct {
	d        int   // sub-block neighbour capacity
	subBytes int   // b * d
	k        int64 // sub-blocks per block
	store    levelStore
	// space is this level's id in the block cache: the level index with a
	// private cache, or an AddSpace-allocated id in a shared cache.
	space uint32
}

// DB is a grDB instance.
type DB struct {
	dir    string
	levels []level
	cache  *cache.BlockCache
	meta   *graphdb.MetaMap

	// nextFree[ℓ] is the next unallocated sub-block at level ℓ (ℓ >= 1;
	// level 0 is addressed by vertex id). Persisted in the manifest.
	nextFree []int64

	// maxVertex is the highest source vertex stored, bounding the
	// Defragment sweep. Persisted in the manifest; -1 when empty.
	maxVertex graph.VertexID

	// tailHint caches each vertex's chain tail so appends skip the walk
	// from level 0 — the "smart caching ... to reduce the number of disk
	// I/Os due to updates" of §3.2. Purely an accelerator: entries are
	// dropped on any doubt (reopen, defragmentation) and appends fall
	// back to the full chain walk.
	tailHint map[graph.VertexID]tailPos

	// copyUp selects the §3.4.1 copy-on-overflow strategy; see
	// graphdb.Options.CopyUpOnOverflow. Chains stay at most two hops
	// (level 0 plus one tail) until the top level, so tail hints are
	// unnecessary and disabled in this mode.
	copyUp bool

	// fsys is the filesystem all durable I/O goes through (the crash
	// suite injects crashfs here); see graphdb.Options.FS.
	fsys vfs.FS

	// durable enables the crash-safe checkpoint protocol of DESIGN.md
	// §11: block checksums, the write-ahead log, no-steal caching, and
	// recovery-on-open. Flush becomes an atomic checkpoint.
	durable bool

	// wal is the redo log (durable mode only); see checkpoint().
	wal *wal.Log

	// manifestGen counts manifest saves; persisted for diagnostics.
	manifestGen uint64

	// genMirror mirrors manifestGen atomically so Generation() can be
	// read by concurrent query admission while a Flush commits (mutators
	// update it last, under their external serialization).
	genMirror atomic.Uint64

	// ckptStaged is the blob from the most recent SetCheckpoint;
	// ckptCommitted is the blob from the last committed Flush (what
	// GetCheckpoint returns). See graphdb.Checkpointer.
	ckptStaged    []byte
	ckptCommitted []byte

	// sharedCache marks that cache belongs to the caller
	// (Options.SharedCache): Flush/Close touch only this instance's
	// spaces and never the co-tenants'.
	sharedCache bool

	// compressed marks that level stores encode blocks (Options.Compress).
	compressed bool

	// pf coordinates asynchronous prefetch jobs (see prefetch.go). Close
	// drains it before releasing the stores.
	pf prefetchEngine

	// Recovery/scrub observability (nil-safe no-ops without a registry).
	mRecoveryRuns, mRecoveryRecords, mRecoveryBlocks, mScrubCorrupt *obs.Counter

	closed bool
	stats  graphdb.StatCounters
}

// tailPos locates the sub-block an append should start from.
type tailPos struct {
	level int
	sub   int64
}

func encodeNeighbor(v graph.VertexID) uint64 { return tagNeighbor | (uint64(v) + 1) }

func decodeNeighbor(w uint64) graph.VertexID { return graph.VertexID(wordValue(w) - 1) }

// Pointer words carry their target level explicitly in the top 3 bits of
// the 61-bit value (the paper leaves the pointer encoding to the
// implementation; an explicit level keeps the format self-describing, so
// background defragmentation may relink a chain to any level). 58 bits
// remain for the sub-block index.
const (
	ptrLevelShift = 58
	ptrLevelMask  = uint64(7) << ptrLevelShift
	ptrSubMask    = (uint64(1) << ptrLevelShift) - 1
)

func encodePointer(level int, sub int64) uint64 {
	return tagPointer | (uint64(level) << ptrLevelShift) | (uint64(sub) & ptrSubMask)
}

func decodePointer(w uint64) (level int, sub int64) {
	return int((w & ptrLevelMask) >> ptrLevelShift), int64(w & ptrSubMask)
}

func wordTag(w uint64) uint64 { return w & tagMask }

func wordValue(w uint64) uint64 { return w & valueMask }

func isPointer(w uint64) bool { return wordTag(w) == tagPointer }

// validateLevels enforces the §3.4.1 constraints on a level ladder.
func validateLevels(levels []graphdb.LevelSpec, maxFileBytes int64) error {
	if len(levels) < 1 {
		return fmt.Errorf("grdb: need at least one level")
	}
	for i, l := range levels {
		if l.SubBlockCap < 2 {
			return fmt.Errorf("grdb: level %d: d must be >= 2, got %d", i, l.SubBlockCap)
		}
		if i > 0 && l.SubBlockCap < 2*levels[i-1].SubBlockCap {
			return fmt.Errorf("grdb: level %d: d_l (%d) must be >= 2*d_{l-1} (%d)",
				i, l.SubBlockCap, 2*levels[i-1].SubBlockCap)
		}
		sub := l.SubBlockCap * wordBytes
		if l.BlockBytes < sub {
			return fmt.Errorf("grdb: level %d: block %d B smaller than sub-block %d B", i, l.BlockBytes, sub)
		}
		if l.BlockBytes%sub != 0 {
			return fmt.Errorf("grdb: level %d: block %d B not a multiple of sub-block %d B", i, l.BlockBytes, sub)
		}
		if maxFileBytes%int64(l.BlockBytes) != 0 {
			return fmt.Errorf("grdb: level %d: file cap %d not a multiple of block %d", i, maxFileBytes, l.BlockBytes)
		}
	}
	return nil
}

// Open creates or reopens a grDB instance under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("grdb: need a directory")
	}
	specs := opts.Levels
	if specs == nil {
		specs = DefaultLevels()
	}
	maxFile := opts.MaxFileBytes
	if maxFile <= 0 {
		maxFile = DefaultMaxFileBytes
	}
	if err := validateLevels(specs, maxFile); err != nil {
		return nil, err
	}
	cacheBytes := opts.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = DefaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0
	}
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("grdb: %w", err)
	}

	d := &DB{
		dir:         opts.Dir,
		meta:        graphdb.NewMetaMap(),
		nextFree:    make([]int64, len(specs)),
		maxVertex:   -1,
		tailHint:    make(map[graph.VertexID]tailPos),
		copyUp:      opts.CopyUpOnOverflow,
		fsys:        fsys,
		durable:     opts.Durability >= graphdb.DurabilityFull,
		compressed:  opts.Compress,
		sharedCache: opts.SharedCache != nil,
	}
	if d.sharedCache {
		if d.durable {
			return nil, fmt.Errorf("grdb: a shared cache cannot be combined with DurabilityFull (the WAL's no-steal contract is per instance)")
		}
		d.cache = opts.SharedCache
	} else {
		d.cache = cache.New(cacheBytes)
		// A shared cache belongs to the caller, who labels its metrics;
		// private caches are mirrored here.
		d.cache.EnableMetrics(opts.Metrics, "grdb")
	}
	if err := d.checkCompressedMarker(); err != nil {
		return nil, err
	}
	d.pf.init(d, opts.PrefetchWorkers, opts.Metrics)
	d.stats.EnableLatency(opts.Metrics, "grdb")
	if reg := opts.Metrics; reg != nil {
		d.mRecoveryRuns = reg.Counter("grdb.recovery.runs")
		d.mRecoveryRecords = reg.Counter("grdb.recovery.wal_records")
		d.mRecoveryBlocks = reg.Counter("grdb.recovery.blocks_applied")
		d.mScrubCorrupt = reg.Counter("grdb.scrub.corrupt_blocks")
	}
	if d.durable {
		// Dirty blocks must not reach their data files before the WAL
		// holding their images is synced (DESIGN.md §11).
		d.cache.SetNoSteal(true)
	}
	for i, spec := range specs {
		// Compressed levels hold physical slots a fixed slack larger than
		// the logical block; the per-file block capacity stays the same.
		physBytes, storeMaxFile := spec.BlockBytes, maxFile
		if d.compressed {
			physBytes = compress.PhysicalBlockSize(spec.BlockBytes)
			storeMaxFile = maxFile / int64(spec.BlockBytes) * int64(physBytes)
		}
		inner, err := blockio.OpenStore(blockio.Config{
			Dir:          opts.Dir,
			Prefix:       fmt.Sprintf("level%d", i),
			BlockSize:    physBytes,
			MaxFileBytes: storeMaxFile,
			Checksums:    d.durable,
			FS:           opts.FS,
		})
		if err != nil {
			d.closeStores()
			return nil, err
		}
		inner.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
		inner.SimulateTransfer(opts.SimTransferLatency)
		var store levelStore = inner
		if d.compressed {
			cs, err := compress.Wrap(inner, spec.BlockBytes)
			if err != nil {
				inner.Close()
				d.closeStores()
				return nil, err
			}
			store = cs
		}
		space := uint32(i)
		if d.sharedCache {
			if space, err = d.cache.AddSpace(store); err != nil {
				store.Close()
				d.closeStores()
				return nil, err
			}
		} else if err := d.cache.AttachSpace(space, store); err != nil {
			store.Close()
			d.closeStores()
			return nil, err
		}
		d.levels = append(d.levels, level{
			d:        spec.SubBlockCap,
			subBytes: spec.SubBlockCap * wordBytes,
			k:        int64(spec.BlockBytes) / int64(spec.SubBlockCap*wordBytes),
			store:    store,
			space:    space,
		})
	}
	if err := d.loadManifest(); err != nil {
		d.closeStores()
		return nil, err
	}
	if d.durable {
		if err := d.recoverDurable(); err != nil {
			d.closeStores()
			return nil, err
		}
	}
	if opts.VerifyOnOpen {
		if _, err := d.Check(); err != nil {
			d.closeStores()
			return nil, fmt.Errorf("grdb: verify-on-open: %w", err)
		}
	}
	return d, nil
}

// checkCompressedMarker reconciles Options.Compress with the on-disk
// marker file: an existing database must be reopened with the encoding
// it was created with.
func (d *DB) checkCompressedMarker() error {
	marker := filepath.Join(d.dir, compressedMarkerName)
	_, err := fsutil.ReadFile(d.fsys, marker)
	hasMarker := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("grdb: %w", err)
	}
	if hasMarker == d.compressed {
		return nil
	}
	_, merr := fsutil.ReadFile(d.fsys, filepath.Join(d.dir, manifestName))
	hasManifest := merr == nil
	if merr != nil && !errors.Is(merr, os.ErrNotExist) {
		return fmt.Errorf("grdb: %w", merr)
	}
	if hasMarker {
		return fmt.Errorf("grdb: %s was created with compressed blocks; reopen with Compress", d.dir)
	}
	if hasManifest {
		return fmt.Errorf("grdb: %s was created without compressed blocks; Compress cannot be enabled on reopen", d.dir)
	}
	// Fresh database opening compressed: record it.
	return fsutil.WriteFileAtomic(d.fsys, marker, []byte("1\n"), 0o644)
}

func (d *DB) closeStores() {
	for _, l := range d.levels {
		if l.store != nil {
			if d.sharedCache {
				// Best-effort: stop leaking this instance's spaces into the
				// caller's cache on a failed Open.
				d.cache.RemoveSpace(l.space)
			}
			l.store.Close()
		}
	}
	if d.wal != nil {
		d.wal.Close()
	}
}

// subBlock pins the block containing sub-block s of level ℓ and returns
// the handle plus the sub-block's byte window inside it.
func (d *DB) subBlock(ℓ int, s int64) (*cache.Handle, []byte, error) {
	l := d.levels[ℓ]
	blockIdx := s / l.k
	h, err := d.cache.Get(l.space, blockIdx)
	if err != nil {
		return nil, nil, err
	}
	off := int(s%l.k) * l.subBytes
	return h, h.Data()[off : off+l.subBytes], nil
}

// fillPoint returns the number of used slots in a sub-block window: the
// index of the first zero word, found by binary search (slots fill left
// to right and no legal word is zero).
func fillPoint(sub []byte) int {
	lo, hi := 0, len(sub)/wordBytes
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(sub[mid*wordBytes:]) != wordEmpty {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func getWord(sub []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(sub[i*wordBytes:])
}

func setWord(sub []byte, i int, w uint64) {
	binary.LittleEndian.PutUint64(sub[i*wordBytes:], w)
}

// allocSub allocates a fresh (all-zero) sub-block at level ℓ. The first
// sub-block of a block starts a block nothing has written yet, so that
// block enters the cache zero-filled and dirty instead of costing a
// device read of zeros. A zero-budget cache would write the empty block
// straight back and still read it on the next touch, so it keeps the
// read.
func (d *DB) allocSub(ℓ int) (int64, error) {
	s := d.nextFree[ℓ]
	d.nextFree[ℓ]++
	l := d.levels[ℓ]
	if ℓ > 0 && s%l.k == 0 && d.cache.Capacity() > 0 {
		h, err := d.cache.Create(l.space, s/l.k)
		if err != nil {
			return 0, err
		}
		if err := h.Release(); err != nil {
			return 0, err
		}
	}
	return s, nil
}

// nextLevel returns the level a full level-ℓ sub-block chains into: ℓ+1,
// or ℓ itself at the top of the ladder.
func (d *DB) nextLevel(ℓ int) int {
	if ℓ+1 < len(d.levels) {
		return ℓ + 1
	}
	return ℓ
}
