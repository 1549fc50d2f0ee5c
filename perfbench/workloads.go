package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mssg/internal/core"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// Disk models. Both charge per physical block operation; the harsh one
// (the io experiment's) also charges per byte moved and gives each node
// a block cache far smaller than its partition.
const (
	blockOpLatency  = 25 * time.Microsecond
	harshTransfer   = 100 * time.Nanosecond
	harshCacheBytes = 256 << 10
	fitCacheBytes   = 2 << 20 // the program's default experiment budget
	backends        = 4
	// cycles is how many times a run sets up; setup_s is their median.
	cycles = 5
	// bfs-ooc's query plan: strata of the cost ranking, pairs per stratum.
	bfsStrata, bfsPerStratum = 32, 64
)

// sizing is one workload's fixed configuration.
type sizing struct {
	scale      float64
	frontEnds  int
	cacheBytes int64
	transfer   time.Duration
	fabric     core.FabricKind
	// probes is ingest-ooc's count of edge-probe queries after each load.
	probes int
	// warmup is the number of untimed queries that warm caches in set-up.
	warmup int
	// tailP is the percentile reported as query_tail_ms: the highest
	// with at least minBeyond samples beyond it at the sample count the
	// workload collects on the machine it was sized on, fixed so that
	// every run reports the same percentile.
	tailP float64
	sched scheduleConfig
}

// sizings holds the shipped workload configurations.
var sizings = map[string]sizing{
	"ingest-ooc": {
		scale: 0.004, frontEnds: 2, cacheBytes: harshCacheBytes, transfer: harshTransfer,
		fabric: core.InProc, probes: 120, tailP: 95,
	},
	"bfs-ooc": {
		scale: 0.0005, frontEnds: 1, cacheBytes: harshCacheBytes / 8, transfer: harshTransfer,
		fabric: core.InProc, warmup: 2, tailP: 95,
	},
	"serve-mixed": {
		scale: 0.004, frontEnds: 1, cacheBytes: fitCacheBytes,
		fabric: core.TCP, warmup: 8, tailP: 99,
		sched: scheduleConfig{
			prefixShare: 0.6, rounds: 20, perRound: 192,
			repeatShare: 0.4, repeatWindow: 4, khopShare: 0.5,
		},
	},
}

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	tr       *tracer // nil: untraced
	dir      string  // scratch directory for the databases
	size     sizing
	// maxOps, when > 0, ends each cycle's timed phase after that many
	// operations instead of after its share of the budget (tests).
	maxOps int
	// wrap, when set, wraps every opened system (the self-tests corrupt
	// answers through it).
	wrap func(system) system
}

func (b *bench) coreConfig(dir string) core.Config {
	return core.Config{
		Backends:  backends,
		FrontEnds: b.size.frontEnds,
		Backend:   "grdb",
		Dir:       dir,
		DBOptions: graphdb.Options{
			CacheBytes:         b.size.cacheBytes,
			SimReadLatency:     blockOpLatency,
			SimWriteLatency:    blockOpLatency,
			SimTransferLatency: b.size.transfer,
		},
		Ingest: ingest.Config{AddReverse: true},
		Fabric: b.size.fabric,
	}
}

// phaseDone reports whether a cycle's timed phase is over.
func (b *bench) phaseDone(start time.Time, ops int) bool {
	if b.maxOps > 0 {
		return ops >= b.maxOps
	}
	return time.Since(start) >= b.budget/cycles
}

// begin opens a trace scope when tracing (nil otherwise).
func (b *bench) begin(name string, req int64, timed bool) *scope {
	if b.tr == nil {
		return nil
	}
	return b.tr.begin(name, req, timed)
}

// endScope closes s when tracing.
func endScope(s *scope) [numKinds][maxTraceNodes]tally {
	if s == nil {
		return [numKinds][maxTraceNodes]tally{}
	}
	return s.end()
}

// ioSnap is a snapshot of the public storage counters of all back-ends.
type ioSnap struct {
	reads, writes, bytesRead, bytesWritten, hits, misses int64
	adjCalls, neighbors                                  int64
}

func snapIO(dbs []graphdb.Graph) ioSnap {
	var s ioSnap
	for _, db := range dbs {
		if c, ok := db.(graphdb.IOCounters); ok {
			r, w := c.IOCounters()
			s.reads += r
			s.writes += w
		}
		if c, ok := db.(graphdb.CacheStats); ok {
			h, m := c.CacheStats()
			s.hits += h
			s.misses += m
		}
		if g, ok := unwrap(db).(*grdb.DB); ok {
			r, w := g.IOBytes()
			s.bytesRead += r
			s.bytesWritten += w
		}
		st := db.Stats()
		s.adjCalls += st.AdjacencyCalls
		s.neighbors += st.NeighborsReturned
	}
	return s
}

func (s ioSnap) sub(o ioSnap) ioSnap {
	return ioSnap{
		s.reads - o.reads, s.writes - o.writes, s.bytesRead - o.bytesRead, s.bytesWritten - o.bytesWritten,
		s.hits - o.hits, s.misses - o.misses, s.adjCalls - o.adjCalls, s.neighbors - o.neighbors,
	}
}

func (s ioSnap) add(o ioSnap) ioSnap {
	return ioSnap{
		s.reads + o.reads, s.writes + o.writes, s.bytesRead + o.bytesRead, s.bytesWritten + o.bytesWritten,
		s.hits + o.hits, s.misses + o.misses, s.adjCalls + o.adjCalls, s.neighbors + o.neighbors,
	}
}

// work is the deterministic work a run's timed phases did, read from
// the program's public accessors (traced and untraced alike).
type work struct {
	io ioSnap
	// Query level loop (executed queries only; cache hits do none).
	queries, levels, edgesTraversed, verticesVisited, fringeSent int64
	// Ingest (timed ingests only).
	ingests, edgesIn, edgesStored, windows, dupWindows, retries int64
}

// result is everything one run measured.
type result struct {
	attempted, failed int64
	wrong             []string

	setup []float64 // seconds per set-up

	bytesPerEdge []float64 // per cycle
	lat          latencies // every timed query, cache hits included
	bfsNs        int64     // Σ latency of executed queries (w.edgesTraversed)
	completed    int64
	timedNs      int64
	w            work
	expandNs     int64 // Σ LevelStats.ExpandNs
	levelNs      int64 // Σ LevelStats.TotalNs
	execNs       int64 // Σ latency of the executed BFS runs those cover
	frontendNs   int64 // Σ ingest wall − store critical path (traced)
	requests     int64 // serve-mixed: requests issued
	repeats      int64 // ... that repeat one since the last commit
	cacheHits    int64
	rejected     int64 // query.EngineStats.Rejected
	queueWait    latencies
	exec         latencies
	tailP        float64
	// rates holds the samples the rate metrics are medians of (see
	// endToEnd): ingest has one per counted ingest call; qps and edges
	// one per cycle (ingest-ooc), one per round (serve-mixed), or one
	// over the whole timed phase (bfs-ooc, whose stratified query mix
	// is balanced only over all its cycles' queries).
	rates       struct{ qps, edges, ingest []float64 }
	graphEdges  int64   // input edges of the generated graph
	storedBytes float64 // bytes on disk after the last load or commit
}

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// diskBytes sums the sizes of the files under dir.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// storedEdges sums the directed edges the back-ends hold.
func storedEdges(dbs []graphdb.Graph) int64 {
	var n int64
	for _, db := range dbs {
		n += db.Stats().EdgesStored
	}
	return n
}

// recordBytesPerEdge samples stored_bytes_per_edge after a load.
func (r *result) recordBytesPerEdge(dir string, sys system) error {
	bytes, err := diskBytes(dir)
	if err != nil {
		return fmt.Errorf("measuring stored bytes: %w", err)
	}
	r.storedBytes = float64(bytes)
	if e := storedEdges(sys.Databases()); e > 0 {
		r.bytesPerEdge = append(r.bytesPerEdge, float64(bytes)/float64(e))
	}
	return nil
}

// ingestChecked runs one ingest, checks its accounting and, when timed,
// adds it to the work counts. It returns the ingest's duration.
func (b *bench) ingestChecked(sys system, edges []graph.Edge, r *result, name string, req int64, timed bool) (time.Duration, error) {
	sc := b.begin(name, req, timed)
	t0 := time.Now()
	st, err := sys.IngestEdges(edges)
	d := time.Since(t0)
	agg := endScope(sc)
	r.attempted++
	if err != nil {
		r.fail("%s: %v", name, err)
		return d, err
	}
	if in, stored := st.EdgesIn.Load(), st.EdgesStored.Load(); in != int64(len(edges)) || stored != 2*in {
		r.fail("%s: read %d of %d edges, stored %d directed (want %d)", name, in, len(edges), stored, 2*len(edges))
	}
	if timed {
		r.w.ingests++
		r.w.edgesIn += st.EdgesIn.Load()
		r.w.edgesStored += st.EdgesStored.Load()
		r.w.windows += st.Blocks.Load()
		r.w.dupWindows += st.DupBlocks.Load()
		r.w.retries += st.Retries.Load()
		if sc != nil {
			var critical int64
			for n := 0; n < maxTraceNodes; n++ {
				critical = max(critical, agg[kStore][n].ns+agg[kFlush][n].ns)
			}
			r.frontendNs += max(d.Nanoseconds()-critical, 0)
		}
	}
	return d, nil
}

// checked is one executed query's answer, to check against the oracle.
type checked struct {
	req request
	got int64
}

// runBFS runs one timed BFS and accounts it.
func (b *bench) runBFS(sys system, q request, r *result, req int64) (checked, bool) {
	sc := b.begin("query.bfs", req, true)
	t0 := time.Now()
	res, err := sys.BFS(query.BFSConfig{Source: q.Source, Dest: q.Dest, Workers: 1})
	d := time.Since(t0)
	endScope(sc)
	r.attempted++
	if err != nil {
		r.fail("%v: %v", q, err)
		return checked{}, false
	}
	r.lat.add(d)
	r.completed++
	r.accountBFS(res, d)
	return checked{q, int64(res.PathLength)}, true
}

// accountBFS adds an executed BFS to the level-loop counters.
func (r *result) accountBFS(res query.BFSResult, d time.Duration) {
	r.w.queries++
	r.w.levels += int64(res.Levels)
	r.w.edgesTraversed += res.EdgesTraversed
	r.w.verticesVisited += res.VerticesVisited
	r.w.fringeSent += res.FringeSent
	r.bfsNs += d.Nanoseconds()
	for _, ls := range res.LevelStats {
		r.expandNs += ls.ExpandNs
		r.levelNs += ls.TotalNs
	}
	r.execNs += d.Nanoseconds()
}

// accountKHop adds an executed k-hop count to the level-loop counters.
func (r *result) accountKHop(res query.KHopResult, d time.Duration) {
	r.w.queries++
	r.w.levels += int64(len(res.PerLevel))
	r.w.edgesTraversed += res.EdgesTraversed
	r.w.verticesVisited += res.Total
	r.bfsNs += d.Nanoseconds()
}

// check compares executed answers with the oracle, outside any timed
// interval.
func (r *result) check(o *oracle, answers []checked) {
	for _, a := range answers {
		if want := o.answer(a.req); a.got != want {
			r.fail("%v answered %d, reference %d", a.req, a.got, want)
		}
	}
}

// setUp runs and times one set-up: generate, open, then load (which
// also warms up). It returns the open system and the inputs.
func (b *bench) setUp(r *result, dir string, load func(sys system, in *inputs) error) (system, *inputs, error) {
	// Collect the previous cycle's garbage first, so that peak_rss_mb is
	// one cycle's footprint, not two cycles' overlapping by GC timing.
	runtime.GC()
	t0 := time.Now()
	in, err := makeInputs(b.size.scale, b.seed)
	if err != nil {
		return nil, nil, err
	}
	r.graphEdges = int64(len(in.edges))
	sys, err := openSystem(b.coreConfig(dir), b.tr)
	if err != nil {
		return nil, nil, fmt.Errorf("opening %s: %w", b.workload, err)
	}
	if b.wrap != nil {
		sys = b.wrap(sys)
	}
	if load != nil {
		if err := load(sys, in); err != nil {
			sys.Close()
			return nil, nil, err
		}
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	return sys, in, nil
}

// closeAndRemove closes a system and deletes its databases.
func closeAndRemove(sys system, dir string) error {
	err := sys.Close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// runIngestOOC bulk-loads the edge stream into empty grDB, then probes
// the loaded graph with distance-2 BFS queries (see distance2Probes).
// Each cycle's set-up is generate + open an empty engine; cycles repeat
// until the budget is spent, at least cycles times.
func runIngestOOC(b *bench) (*result, error) {
	r := &result{tailP: b.size.tailP}
	for cycle := 0; cycle < cycles || (b.maxOps == 0 && time.Duration(r.timedNs) < b.budget); cycle++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("ingest%d", cycle))
		sys, in, err := b.setUp(r, dir, nil)
		if err != nil {
			return nil, err
		}
		o := newOracle(in.cfg.Vertices, in.edges)
		probes := distance2Probes(in, o, b.seed, fmt.Sprintf("probe%d", cycle), b.size.probes)
		start := time.Now()
		before := snapIO(sys.Databases())
		done0, edges0, ns0 := r.completed, r.w.edgesTraversed, r.bfsNs
		d, err := b.ingestChecked(sys, in.edges, r, "core.ingest", int64(cycle), true)
		if err == nil {
			r.rates.ingest = append(r.rates.ingest, rate(int64(len(in.edges)), d.Nanoseconds()))
			if err := r.recordBytesPerEdge(dir, sys); err != nil {
				sys.Close()
				return nil, err
			}
			var answers []checked
			for i, q := range probes {
				if a, ok := b.runBFS(sys, q, r, int64(cycle*len(probes)+i)); ok {
					answers = append(answers, a)
				}
			}
			r.check(o, answers)
		}
		r.w.io = r.w.io.add(snapIO(sys.Databases()).sub(before))
		cycleNs := time.Since(start).Nanoseconds()
		r.timedNs += cycleNs
		r.rates.qps = append(r.rates.qps, rate(r.completed-done0, cycleNs))
		r.rates.edges = append(r.rates.edges, rate(r.w.edgesTraversed-edges0, r.bfsNs-ns0))
		if err := closeAndRemove(sys, dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runBFSOOC loads the graph in set-up, warms the caches, then issues
// random-pair BFS from one closed-loop client through core.Engine.BFS.
func runBFSOOC(b *bench) (*result, error) {
	r := &result{tailP: b.size.tailP}
	// Plan the query sequence once, before any set-up: one stratified
	// sequence (see stratifiedPairs) continues across the cycles.
	in, err := makeInputs(b.size.scale, b.seed)
	if err != nil {
		return nil, err
	}
	o := newOracle(in.cfg.Vertices, in.edges)
	plan := stratifiedPairs(in, o, b.seed, "bfs", bfsStrata, bfsPerStratum)
	warmPlan := medianPairs(in, o, b.seed, "warm", b.size.warmup)
	next := 0
	for cycle := 0; cycle < cycles; cycle++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("bfs%d", cycle))
		sys, _, err := b.setUp(r, dir, func(sys system, in *inputs) error {
			d, err := b.ingestChecked(sys, in.edges, r, "core.ingest", int64(cycle), false)
			if err != nil {
				return err
			}
			r.rates.ingest = append(r.rates.ingest, rate(int64(len(in.edges)), d.Nanoseconds()))
			if err := r.recordBytesPerEdge(dir, sys); err != nil {
				return err
			}
			// Warm-up searches of median cost keep set-up's cost
			// independent of which pairs the seed happened to draw.
			for _, q := range warmPlan {
				if _, err := sys.BFS(query.BFSConfig{Source: q.Source, Dest: q.Dest, Workers: 1}); err != nil {
					return fmt.Errorf("warm-up %v: %w", q, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var answers []checked
		start := time.Now()
		before := snapIO(sys.Databases())
		for n := 0; !b.phaseDone(start, n); n++ {
			q := plan[next%len(plan)]
			next++
			if a, ok := b.runBFS(sys, q, r, int64(next)); ok {
				answers = append(answers, a)
			}
		}
		r.w.io = r.w.io.add(snapIO(sys.Databases()).sub(before))
		r.timedNs += time.Since(start).Nanoseconds()
		r.check(o, answers)
		if err := closeAndRemove(sys, dir); err != nil {
			return nil, err
		}
	}
	r.rates.qps = []float64{rate(r.completed, r.timedNs)}
	r.rates.edges = []float64{rate(r.w.edgesTraversed, r.bfsNs)}
	return r, nil
}

// tenants are serve-mixed's two equal-weight tenants, one per client.
var tenants = []string{"t0", "t1"}

// servedAnswer is one serve-mixed answer with the round it ran in.
type servedAnswer struct {
	checked
	round int
}

// runServeMixed runs two closed-loop tenants against a resident
// query.Engine with its result cache on, committing the next slice of
// the edge stream between rounds while both clients are quiesced.
func runServeMixed(b *bench) (*result, error) {
	r := &result{tailP: b.size.tailP}
	for cycle := 0; cycle < cycles; cycle++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("serve%d", cycle))
		var sched *schedule
		var qe *query.Engine
		sys, in, err := b.setUp(r, dir, func(sys system, in *inputs) error {
			sched = makeSchedule(in, b.size.sched, b.seed, fmt.Sprintf("serve%d", cycle))
			if _, err := b.ingestChecked(sys, sched.Prefix, r, "core.ingest", int64(cycle), false); err != nil {
				return err
			}
			var err error
			qe, err = sys.NewQueryEngine(query.EngineConfig{
				CacheBytes: 16 << 20,
				Tenants:    map[string]query.TenantConfig{tenants[0]: {Weight: 1}, tenants[1]: {Weight: 1}},
			})
			if err != nil {
				return err
			}
			warm := newPairSource(in, b.seed, fmt.Sprintf("warm%d", cycle))
			for i := 0; i < b.size.warmup; i++ {
				q, err := submit(qe, tenants[i%2], warm.next())
				if err == nil {
					_, err = q.Wait()
				}
				if err != nil {
					qe.Close()
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var answers []servedAnswer
		start := time.Now()
		before := snapIO(sys.Databases())
		rounds := 0
		for ; rounds < len(sched.Rounds) && !b.phaseDone(start, rounds); rounds++ {
			rd := sched.Rounds[rounds]
			t0, done0, edges0, ns0 := time.Now(), r.completed, r.w.edgesTraversed, r.bfsNs
			answers = append(answers, b.serveRound(qe, rd, rounds, r)...)
			if d, err := b.ingestChecked(sys, rd.Commit, r, "core.ingest", int64(rounds), true); err == nil {
				r.rates.ingest = append(r.rates.ingest, rate(int64(len(rd.Commit)), d.Nanoseconds()))
			}
			r.rates.qps = append(r.rates.qps, rate(r.completed-done0, time.Since(t0).Nanoseconds()))
			r.rates.edges = append(r.rates.edges, rate(r.w.edgesTraversed-edges0, r.bfsNs-ns0))
		}
		r.w.io = r.w.io.add(snapIO(sys.Databases()).sub(before))
		r.rejected += qe.Stats().Rejected
		qe.Close()
		if err := r.recordBytesPerEdge(dir, sys); err != nil {
			sys.Close()
			return nil, err
		}
		// Check every answer against the graph committed when it ran.
		byRound := make([][]checked, rounds)
		for _, a := range answers {
			byRound[a.round] = append(byRound[a.round], a.checked)
		}
		o := newOracle(in.cfg.Vertices, sched.Prefix)
		for round, as := range byRound {
			r.check(o, as)
			o.add(sched.Rounds[round].Commit)
		}
		if err := closeAndRemove(sys, dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// submit admits one request under tenant.
func submit(qe *query.Engine, tenant string, q request) (*query.Query, error) {
	if q.K > 0 {
		return qe.KHopAs(context.Background(), tenant, query.KHopConfig{Source: q.Source, K: q.K})
	}
	return qe.BFSAs(context.Background(), tenant, query.BFSConfig{Source: q.Source, Dest: q.Dest, Workers: 1})
}

// serveRound runs one round's requests on two closed-loop clients and
// returns the answers to check.
func (b *bench) serveRound(qe *query.Engine, rd round, round int, r *result) []servedAnswer {
	sc := b.begin("serve.round", int64(round), true)
	defer endScope(sc)
	seen := make(map[request]bool)
	for _, q := range rd.Requests {
		if seen[q] {
			r.repeats++
		}
		seen[q] = true
	}
	r.requests += int64(len(rd.Requests))

	var mu sync.Mutex
	var answers []servedAnswer
	var wg sync.WaitGroup
	for c := range tenants {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(rd.Requests); i += len(tenants) {
				q := rd.Requests[i]
				t0 := time.Now()
				qq, err := submit(qe, tenants[c], q)
				var res any
				if err == nil {
					res, err = qq.Wait()
				}
				d := time.Since(t0)
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail("%v: %v", q, err)
				} else {
					r.lat.add(d)
					r.completed++
					a := servedAnswer{checked{req: q}, round}
					if qq.CacheHit {
						r.cacheHits++
					} else {
						r.queueWait.add(qq.QueueWait)
						r.exec.add(qq.Finished.Sub(qq.Started))
						if sc != nil {
							sc.child("engine.queue_wait", int64(qq.ID), qq.Submitted, qq.Started)
							sc.child("engine.exec", int64(qq.ID), qq.Started, qq.Finished)
						}
					}
					switch v := res.(type) {
					case query.BFSResult:
						a.got = int64(v.PathLength)
						if !qq.CacheHit {
							r.accountBFS(v, qq.Finished.Sub(qq.Started))
						}
					case query.KHopResult:
						a.got = v.Total
						if !qq.CacheHit {
							r.accountKHop(v, qq.Finished.Sub(qq.Started))
						}
					default:
						r.fail("%v: unexpected result %T", q, res)
					}
					answers = append(answers, a)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return answers
}
