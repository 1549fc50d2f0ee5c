package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/datacutter"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// Config parameterizes one ingestion run.
type Config struct {
	// FrontEnds is the number of ingest filter copies (the paper varies
	// this between 1 and 8).
	FrontEnds int
	// Backends is the number of store filter copies (back-end nodes).
	Backends int
	// WindowEdges is the block/window size: edges are accumulated per
	// destination and shipped in blocks of this many (§3.2 processes
	// streaming data "in blocks (or windows) of a predetermined size").
	// <= 0 means 4096.
	WindowEdges int
	// AddReverse stores both orientations of every input edge, making
	// the stored graph undirected as in Table 5.1. Default true via
	// NewConfig; zero-value Config leaves it off.
	AddReverse bool
	// Policy is the declustering policy; nil means VertexMod.
	Policy func() Policy
	// ReplicationFactor ships every window to this many distinct
	// back-ends (k-way replication), so queries survive k-1 node losses.
	// <= 1 means no replication. Values > 1 require a policy
	// implementing ReplicaPolicy (rendezvous); the back-end dedup set is
	// per node, so each replica applies a re-shipped window exactly
	// once. Capped at 6.
	ReplicationFactor int
	// ShipRetries is how many times a front-end re-ships a window after
	// an ambiguous (cluster.ErrTimeout) send failure. The back-end
	// deduplicates windows by id, so a re-ship of a window that actually
	// arrived is counted in Stats.DupBlocks, not stored twice. 0 means 2;
	// negative disables retries.
	ShipRetries int
	// Durable makes back-ends persist their window dedup-set through
	// graphdb.Checkpointer, so a restarted back-end resumes from its last
	// committed (frontend, seq) window instead of double-storing a
	// re-shipped stream. Requires databases that implement Checkpointer
	// (grDB); Init fails otherwise.
	Durable bool
	// CheckpointWindows is how many applied windows a durable back-end
	// stores between checkpoints (dedup-set + Flush). It also bounds
	// every back-end's store batch: windows are stored at most this many
	// per StoreEdges call, and a batch never crosses a checkpoint.
	// <= 0 means 64.
	CheckpointWindows int
}

func (c Config) checkpointWindows() int {
	if c.CheckpointWindows <= 0 {
		return 64
	}
	return c.CheckpointWindows
}

func (c Config) shipRetries() int {
	if c.ShipRetries == 0 {
		return 2
	}
	if c.ShipRetries < 0 {
		return 0
	}
	return c.ShipRetries
}

func (c Config) windowEdges() int {
	if c.WindowEdges <= 0 {
		return 4096
	}
	return c.WindowEdges
}

func (c Config) policy() Policy {
	if c.Policy == nil {
		return VertexMod{}
	}
	return c.Policy()
}

func (c Config) replicationFactor() int {
	if c.ReplicationFactor <= 1 {
		return 1
	}
	return c.ReplicationFactor
}

// Stats aggregates an ingestion run.
type Stats struct {
	// EdgesIn counts edges read by the front-ends (before reversal).
	EdgesIn atomic.Int64
	// EdgesStored counts directed records stored by the back-ends.
	EdgesStored atomic.Int64
	// Blocks counts windows shipped front-end → back-end.
	Blocks atomic.Int64
	// Retries counts window re-ships after ambiguous send failures.
	Retries atomic.Int64
	// DupBlocks counts windows a back-end received more than once and
	// discarded (a retried ship whose first attempt actually arrived, or
	// a duplicate injected by a faulty fabric).
	DupBlocks atomic.Int64
	// ReplicaBlocks counts secondary-copy window ships: each window of a
	// k-way replicated run adds k-1 of these on top of its Blocks entry.
	ReplicaBlocks atomic.Int64
	// ReplicaWindows counts windows a back-end stored as a non-primary
	// replica (standby copies it serves only after a failover).
	ReplicaWindows atomic.Int64
}

const edgeBytes = 16

// encodeEdges packs a window of edges into a stream buffer payload.
func encodeEdges(edges []graph.Edge) []byte {
	b := make([]byte, edgeBytes*len(edges))
	for i, e := range edges {
		binary.LittleEndian.PutUint64(b[edgeBytes*i:], uint64(e.Src))
		binary.LittleEndian.PutUint64(b[edgeBytes*i+8:], uint64(e.Dst))
	}
	return b
}

// decodeEdges unpacks a window payload.
func decodeEdges(b []byte) ([]graph.Edge, error) {
	if len(b)%edgeBytes != 0 {
		return nil, fmt.Errorf("ingest: window payload of %d bytes not a multiple of %d", len(b), edgeBytes)
	}
	return appendEdges(make([]graph.Edge, 0, len(b)/edgeBytes), b), nil
}

// appendEdges decodes a payload whose length is a multiple of edgeBytes
// onto dst.
func appendEdges(dst []graph.Edge, b []byte) []graph.Edge {
	for i := 0; i+edgeBytes <= len(b); i += edgeBytes {
		dst = append(dst, graph.Edge{
			Src: graph.VertexID(binary.LittleEndian.Uint64(b[i:])),
			Dst: graph.VertexID(binary.LittleEndian.Uint64(b[i+8:])),
		})
	}
	return dst
}

// windowHeaderBytes prefixes every shipped window with {frontend uint32,
// seq uint64}: a globally unique window id, so back-ends can discard the
// window if it arrives a second time (from a ship retry or a fabric-level
// duplicate) and re-shipping is idempotent.
const windowHeaderBytes = 12

func encodeWindow(frontend uint32, seq uint64, edges []graph.Edge) []byte {
	b := make([]byte, windowHeaderBytes+edgeBytes*len(edges))
	binary.LittleEndian.PutUint32(b[0:4], frontend)
	binary.LittleEndian.PutUint64(b[4:12], seq)
	for i, e := range edges {
		binary.LittleEndian.PutUint64(b[windowHeaderBytes+edgeBytes*i:], uint64(e.Src))
		binary.LittleEndian.PutUint64(b[windowHeaderBytes+edgeBytes*i+8:], uint64(e.Dst))
	}
	return b
}

func decodeWindow(b []byte) (frontend uint32, seq uint64, edges []graph.Edge, err error) {
	if frontend, seq, err = windowHeader(b); err != nil {
		return 0, 0, nil, err
	}
	edges, err = decodeEdges(b[windowHeaderBytes:])
	return frontend, seq, edges, err
}

// windowHeader validates a window's framing and returns its id.
func windowHeader(b []byte) (frontend uint32, seq uint64, err error) {
	if len(b) < windowHeaderBytes {
		return 0, 0, fmt.Errorf("ingest: window of %d bytes shorter than its %d-byte header", len(b), windowHeaderBytes)
	}
	if n := len(b) - windowHeaderBytes; n%edgeBytes != 0 {
		return 0, 0, fmt.Errorf("ingest: window payload of %d bytes not a multiple of %d", n, edgeBytes)
	}
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint64(b[4:12]), nil
}

// windowKey collapses a window id into the dedup-set key. Front-end copy
// counts are tiny (the paper tops out at 8), so 16 bits of frontend and
// 48 bits of sequence cannot collide in practice.
func windowKey(frontend uint32, seq uint64) uint64 {
	return uint64(frontend)<<48 | seq&(1<<48-1)
}

// ingestFilter is the front-end filter: it reads its partition of the
// edge stream, declusters each edge (both orientations when AddReverse),
// and ships per-destination windows on the directed "out" stream.
type ingestFilter struct {
	cfg    Config
	reader graph.EdgeReader
	policy Policy
	stats  *Stats

	copyIdx  int
	blockSeq uint64
	windows  [][]graph.Edge

	// Replicated mode (cfg.ReplicationFactor > 1): windows accumulate
	// per ordered replica set rather than per single destination, since
	// two edges sharing a primary can have different secondaries. Each
	// group's window ships — with one id — to every member; per-node
	// dedup keeps each copy exactly-once.
	repl   ReplicaPolicy
	groups map[uint64]*replicaGroup

	// windowStart[d] is when window d received its first edge; the
	// build-latency histogram measures first-append -> ship.
	windowStart []time.Time
	mBuild      *obs.Histogram
	mShip       *obs.Histogram
	mWinEdges   *obs.Histogram
	mDestEdges  []*obs.Counter
	mReplBlocks *obs.Counter
}

// replicaGroup is one replica set's in-progress window.
type replicaGroup struct {
	dests []cluster.NodeID
	edges []graph.Edge
	start time.Time
}

// groupReplicaCap bounds ReplicationFactor so a replica set packs into a
// 64-bit group key (10 bits per member, backends <= 1024).
const (
	groupReplicaCap  = 6
	groupBackendsCap = 1024
)

func groupKey(dests []cluster.NodeID) uint64 {
	var k uint64
	for _, d := range dests {
		k = k<<10 | uint64(d)&(groupBackendsCap-1)
	}
	return k
}

// registerSkew publishes ingest.decluster_skew_x1000: the ratio of the
// most-loaded destination's edge count to the mean, scaled by 1000
// (1000 = perfectly balanced). Pull-mode, so the per-edge path only pays
// the per-destination counter it already increments.
func registerSkew(reg *obs.Registry, dests []*obs.Counter) {
	reg.RegisterFunc("ingest.decluster_skew_x1000", func() int64 {
		var total, max int64
		for _, c := range dests {
			v := c.Value()
			total += v
			if v > max {
				max = v
			}
		}
		if total == 0 {
			return 0
		}
		mean := float64(total) / float64(len(dests))
		return int64(float64(max) / mean * 1000)
	})
}

// Init implements datacutter.Filter.
func (f *ingestFilter) Init(ctx *datacutter.Context) error {
	out, err := ctx.Output("out")
	if err != nil {
		return err
	}
	if out.Fanout() != f.cfg.Backends {
		return fmt.Errorf("ingest: stream fanout %d != %d backends", out.Fanout(), f.cfg.Backends)
	}
	f.copyIdx = ctx.Instance().Copy
	if s, ok := f.policy.(CopySeeder); ok {
		s.SeedCopy(f.copyIdx)
	}
	if k := f.cfg.replicationFactor(); k > 1 {
		rp, ok := f.policy.(ReplicaPolicy)
		if !ok {
			return fmt.Errorf("ingest: replication factor %d needs a replica-placing policy (rendezvous), got %s",
				k, f.policy.Name())
		}
		if k > groupReplicaCap || f.cfg.Backends > groupBackendsCap {
			return fmt.Errorf("ingest: replication supports at most %d replicas over %d backends, got %d/%d",
				groupReplicaCap, groupBackendsCap, k, f.cfg.Backends)
		}
		if got := rp.ReplicationFactor(); got != k {
			return fmt.Errorf("ingest: policy places %d replicas but config asks for %d", got, k)
		}
		f.repl = rp
		f.groups = make(map[uint64]*replicaGroup)
	}
	f.windows = make([][]graph.Edge, f.cfg.Backends)
	f.windowStart = make([]time.Time, f.cfg.Backends)
	reg := obs.Default()
	f.mBuild = reg.Histogram("ingest.window_build_ns")
	f.mShip = reg.Histogram("ingest.window_ship_ns")
	f.mWinEdges = reg.Histogram("ingest.window_edges")
	f.mDestEdges = make([]*obs.Counter, f.cfg.Backends)
	for d := range f.mDestEdges {
		f.mDestEdges[d] = reg.Counter(fmt.Sprintf("ingest.dest_%02d.edges", d))
	}
	f.mReplBlocks = reg.Counter("ingest.replica_blocks")
	registerSkew(reg, f.mDestEdges)
	return nil
}

// ship sends one window, retrying on ambiguous (ErrTimeout) failures —
// safe because windows carry a unique id and back-ends deduplicate.
func (f *ingestFilter) ship(out *datacutter.StreamWriter, dest int) error {
	if len(f.windows[dest]) == 0 {
		return nil
	}
	f.mWinEdges.Observe(int64(len(f.windows[dest])))
	f.mBuild.ObserveSince(f.windowStart[dest])
	f.blockSeq++
	payload := encodeWindow(uint32(f.copyIdx), f.blockSeq, f.windows[dest])
	f.windows[dest] = f.windows[dest][:0]
	f.stats.Blocks.Add(1)
	shipStart := time.Now()
	defer f.mShip.ObserveSince(shipStart)
	var err error
	for attempt := 0; attempt <= f.cfg.shipRetries(); attempt++ {
		if attempt > 0 {
			f.stats.Retries.Add(1)
		}
		err = out.WriteTo(dest, datacutter.Buffer{Data: payload})
		if err == nil || !errors.Is(err, cluster.ErrTimeout) {
			return err
		}
	}
	return err
}

// shipGroup ships one replica group's window to every member. The same
// payload (same window id) goes to each, so any member can serve the
// shard; retries follow the same ambiguous-timeout rule as ship, and
// per-node dedup makes arrivals exactly-once everywhere.
func (f *ingestFilter) shipGroup(out *datacutter.StreamWriter, g *replicaGroup) error {
	if len(g.edges) == 0 {
		return nil
	}
	f.mWinEdges.Observe(int64(len(g.edges)))
	f.mBuild.ObserveSince(g.start)
	f.blockSeq++
	payload := encodeWindow(uint32(f.copyIdx), f.blockSeq, g.edges)
	g.edges = g.edges[:0]
	f.stats.Blocks.Add(1)
	shipStart := time.Now()
	defer f.mShip.ObserveSince(shipStart)
	for i, dest := range g.dests {
		data := payload
		if i > 0 {
			// The stream owns each sent buffer; secondaries get copies.
			data = append([]byte(nil), payload...)
			f.stats.ReplicaBlocks.Add(1)
			f.mReplBlocks.Inc()
		}
		var err error
		for attempt := 0; attempt <= f.cfg.shipRetries(); attempt++ {
			if attempt > 0 {
				f.stats.Retries.Add(1)
			}
			err = out.WriteTo(int(dest), datacutter.Buffer{Data: data})
			if err == nil || !errors.Is(err, cluster.ErrTimeout) {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// routeReplicated accumulates e into its replica set's window.
func (f *ingestFilter) routeReplicated(out *datacutter.StreamWriter, e graph.Edge) error {
	dests := f.repl.Replicas(e.Src)
	if len(dests) == 0 || int(dests[0]) < 0 || int(dests[0]) >= f.cfg.Backends {
		return fmt.Errorf("ingest: policy %s placed %v of %d backends", f.policy.Name(), dests, f.cfg.Backends)
	}
	g := f.groups[groupKey(dests)]
	if g == nil {
		g = &replicaGroup{dests: dests}
		f.groups[groupKey(dests)] = g
	}
	if len(g.edges) == 0 {
		g.start = time.Now()
	}
	g.edges = append(g.edges, e)
	f.mDestEdges[dests[0]].Inc() // skew tracks primary placement
	if len(g.edges) >= f.cfg.windowEdges() {
		return f.shipGroup(out, g)
	}
	return nil
}

func (f *ingestFilter) route(out *datacutter.StreamWriter, e graph.Edge) error {
	if f.repl != nil {
		return f.routeReplicated(out, e)
	}
	dest := f.policy.Route(e, f.cfg.Backends)
	if dest < 0 || dest >= f.cfg.Backends {
		return fmt.Errorf("ingest: policy %s routed to %d of %d", f.policy.Name(), dest, f.cfg.Backends)
	}
	if len(f.windows[dest]) == 0 {
		f.windowStart[dest] = time.Now()
	}
	f.windows[dest] = append(f.windows[dest], e)
	f.mDestEdges[dest].Inc()
	if len(f.windows[dest]) >= f.cfg.windowEdges() {
		return f.ship(out, dest)
	}
	return nil
}

// Process implements datacutter.Filter.
func (f *ingestFilter) Process(ctx *datacutter.Context) error {
	out, err := ctx.Output("out")
	if err != nil {
		return err
	}
	for {
		e, err := f.reader.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ingest: %s: %w", ctx.Instance(), err)
		}
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
		f.stats.EdgesIn.Add(1)
		if err := f.route(out, e); err != nil {
			return err
		}
		if f.cfg.AddReverse && e.Src != e.Dst {
			if err := f.route(out, e.Reverse()); err != nil {
				return err
			}
		}
	}
	// Flush partial windows.
	for _, g := range f.groups {
		if err := f.shipGroup(out, g); err != nil {
			return err
		}
	}
	for dest := range f.windows {
		if err := f.ship(out, dest); err != nil {
			return err
		}
	}
	return nil
}

// Finalize implements datacutter.Filter.
func (f *ingestFilter) Finalize(ctx *datacutter.Context) error { return nil }

// storeFilter is the back-end filter: it drains windows from "in" and
// stores them into its node's GraphDB instance. Windows are deduplicated
// by id, so a re-shipped or fabric-duplicated window is stored once.
type storeFilter struct {
	cfg   Config
	db    graphdb.Graph
	stats *Stats

	seen map[uint64]struct{}
	// ckpt is the database's checkpoint interface when cfg.Durable; the
	// dedup-set is staged through it and committed by db.Flush, making
	// (window applied, window remembered) one atomic unit.
	ckpt      graphdb.Checkpointer
	sinceCkpt int

	// Replicated mode: repl and self classify each stored window as a
	// primary or standby copy for the replica-awareness stats.
	repl ReplicaPolicy
	self int

	mStore    *obs.Histogram
	mBatch    *obs.Histogram
	mApplied  *obs.Counter
	mDups     *obs.Counter
	mReplWins *obs.Counter
}

// Init implements datacutter.Filter.
func (f *storeFilter) Init(ctx *datacutter.Context) error {
	f.seen = make(map[uint64]struct{})
	if f.cfg.Durable {
		ck, ok := f.db.(graphdb.Checkpointer)
		if !ok {
			return fmt.Errorf("ingest: durable ingest needs a database implementing graphdb.Checkpointer, got %T", f.db)
		}
		f.ckpt = ck
		blob, err := ck.GetCheckpoint()
		if err != nil {
			return err
		}
		if f.seen, err = decodeSeen(blob); err != nil {
			return err
		}
	}
	if f.cfg.replicationFactor() > 1 {
		if rp, ok := f.cfg.policy().(ReplicaPolicy); ok {
			f.repl = rp
			f.self = ctx.Instance().Copy
		}
	}
	reg := obs.Default()
	f.mStore = reg.Histogram("ingest.store_batch_ns")
	f.mBatch = reg.Histogram("ingest.store_batch_windows")
	f.mApplied = reg.Counter("ingest.windows_applied")
	f.mDups = reg.Counter("ingest.dup_windows")
	f.mReplWins = reg.Counter("ingest.replica_windows_stored")
	return nil
}

// commitCheckpoint stages the dedup-set and flushes the database, making
// everything applied so far durable in one atomic step.
func (f *storeFilter) commitCheckpoint() error {
	if f.ckpt == nil {
		return nil
	}
	if err := f.ckpt.SetCheckpoint(encodeSeen(f.seen)); err != nil {
		return err
	}
	if err := f.db.Flush(); err != nil {
		return err
	}
	f.sinceCkpt = 0
	return nil
}

// apply stores a batch of window payloads with one StoreEdges call,
// skipping windows this copy has already stored (including a repeat
// inside the batch). A malformed window fails the batch before any of
// it is counted. Each surviving window is classified exactly as if it
// arrived alone; the survivors are decoded into one slice of exact size
// and apply clears windows[i] once it is decoded, so a caller that
// passes its own slice lets the payloads be collected before the store.
// The applied windows count toward the durable checkpoint cadence.
func (f *storeFilter) apply(windows ...[]byte) error {
	for _, data := range windows {
		if _, _, err := windowHeader(data); err != nil {
			return err
		}
	}
	keep, total := 0, 0
	for _, data := range windows {
		frontend, seq, _ := windowHeader(data)
		key := windowKey(frontend, seq)
		if _, dup := f.seen[key]; dup {
			f.stats.DupBlocks.Add(1)
			f.mDups.Inc()
			continue
		}
		f.seen[key] = struct{}{}
		n := (len(data) - windowHeaderBytes) / edgeBytes
		// Every edge of a replicated window shares one replica set, so the
		// first edge classifies the whole window as primary or standby here.
		if f.repl != nil && n > 0 {
			src := graph.VertexID(binary.LittleEndian.Uint64(data[windowHeaderBytes:]))
			if int(f.repl.Replicas(src)[0]) != f.self {
				f.stats.ReplicaWindows.Add(1)
				f.mReplWins.Inc()
			}
		}
		windows[keep] = data
		keep++
		total += n
	}
	edges := make([]graph.Edge, 0, total)
	for i, data := range windows[:keep] {
		edges = appendEdges(edges, data[windowHeaderBytes:])
		windows[i] = nil
	}
	for i := keep; i < len(windows); i++ {
		windows[i] = nil
	}
	if keep == 0 {
		return nil
	}
	start := time.Now()
	if err := f.db.StoreEdges(edges); err != nil {
		return err
	}
	f.mStore.ObserveSince(start)
	f.mBatch.Observe(int64(keep))
	f.mApplied.Add(int64(keep))
	f.stats.EdgesStored.Add(int64(len(edges)))
	if f.ckpt != nil {
		f.sinceCkpt += keep
		if f.sinceCkpt >= f.cfg.checkpointWindows() {
			return f.commitCheckpoint()
		}
	}
	return nil
}

// Process implements datacutter.Filter. It stores windows in batches:
// a batch is whatever arrives up to the next durable checkpoint (at
// most CheckpointWindows windows) or the end of the stream, so each
// back-end walks its chains once per batch instead of once per window.
func (f *storeFilter) Process(ctx *datacutter.Context) error {
	in, err := ctx.Input("in")
	if err != nil {
		return err
	}
	return f.process(func() ([]byte, error) {
		buf, err := in.Read()
		return buf.Data, err
	})
}

// process drains read (which returns io.EOF at end of stream) in
// batches through apply.
func (f *storeFilter) process(read func() ([]byte, error)) error {
	batch := make([][]byte, 0, f.cfg.checkpointWindows())
	for {
		batch = batch[:0]
		limit := f.cfg.checkpointWindows() - f.sinceCkpt
		var eos bool
		for len(batch) < limit {
			data, err := read()
			if err == io.EOF {
				eos = true
				break
			}
			if err != nil {
				return err
			}
			batch = append(batch, data)
		}
		if err := f.apply(batch...); err != nil {
			return err
		}
		if eos {
			return nil
		}
	}
}

// Finalize implements datacutter.Filter: make the stored graph — and,
// when durable, the final dedup-set — durable and retrievable before the
// query phase starts.
func (f *storeFilter) Finalize(ctx *datacutter.Context) error {
	if f.ckpt != nil {
		return f.commitCheckpoint()
	}
	return f.db.Flush()
}

// BuildGraph assembles the ingestion filter graph (Fig 3.1's front-end →
// back-end flow):
//
//	ingest[0..F) --directed--> store[0..B)
//
// makeReader returns front-end copy i's partition of the input stream;
// db returns back-end copy i's GraphDB instance. Placement of the two
// filters is the caller's: the engine puts store copies on the storage
// nodes and ingest copies on the front-end nodes.
func BuildGraph(g *datacutter.Graph, cfg Config, stats *Stats,
	makeReader func(copy int) (graph.EdgeReader, error),
	db func(copy int) graphdb.Graph,
	ingestPlacement, storePlacement datacutter.Placement,
) error {
	if cfg.FrontEnds < 1 || cfg.Backends < 1 {
		return fmt.Errorf("ingest: need >= 1 front-end and >= 1 back-end, got %d/%d", cfg.FrontEnds, cfg.Backends)
	}
	err := g.AddFilter("ingest", func(in datacutter.Instance) (datacutter.Filter, error) {
		r, err := makeReader(in.Copy)
		if err != nil {
			return nil, err
		}
		return &ingestFilter{cfg: cfg, reader: r, policy: cfg.policy(), stats: stats}, nil
	}, ingestPlacement)
	if err != nil {
		return err
	}
	err = g.AddFilter("store", func(in datacutter.Instance) (datacutter.Filter, error) {
		d := db(in.Copy)
		if d == nil {
			return nil, fmt.Errorf("ingest: no database for store copy %d", in.Copy)
		}
		return &storeFilter{cfg: cfg, db: d, stats: stats}, nil
	}, storePlacement)
	if err != nil {
		return err
	}
	return g.Connect("ingest", "out", "store", "in", datacutter.Directed)
}
