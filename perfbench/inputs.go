package main

import (
	"fmt"
	"sort"

	"mssg/internal/gen"
	"mssg/internal/graph"
)

// request is one analyst query: a BFS path search when K == 0, a K-hop
// neighbourhood count otherwise.
type request struct {
	Source graph.VertexID
	Dest   graph.VertexID
	K      int
}

func (r request) String() string {
	if r.K > 0 {
		return fmt.Sprintf("khop(%d,k=%d)", r.Source, r.K)
	}
	return fmt.Sprintf("bfs(%d->%d)", r.Source, r.Dest)
}

// inputs is everything a workload hands the program, derived from one
// seed: the generated edge stream and a vertex pool to draw queries from.
type inputs struct {
	cfg   gen.Config
	edges []graph.Edge
	// present lists, ascending, every vertex with at least one edge — the
	// paper's query endpoints (gen.RandomQueryPairs draws from the same
	// set).
	present []graph.VertexID
}

// makeInputs generates the PubMed-S'-shaped edge stream for seed. The
// seed replaces the preset's generator seed, so a different seed gives a
// different graph of the same shape.
func makeInputs(scale float64, seed int64) (*inputs, error) {
	cfg := gen.PubMedS(scale)
	cfg.Seed = seed
	edges, err := gen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", cfg.Name, err)
	}
	seen := make([]bool, cfg.Vertices)
	for _, e := range edges {
		seen[e.Src], seen[e.Dst] = true, true
	}
	in := &inputs{cfg: cfg, edges: edges}
	for v, ok := range seen {
		if ok {
			in.present = append(in.present, graph.VertexID(v))
		}
	}
	return in, nil
}

// streamSeed derives an independent RNG stream from the run seed, so the
// query sequence of one phase does not shift when another changes.
func streamSeed(seed int64, stream string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return int64(h >> 1)
}

// pairSource yields a deterministic infinite sequence of random BFS
// pairs (distinct endpoints, both present).
type pairSource struct {
	present []graph.VertexID
	rng     *gen.RNG
}

func newPairSource(in *inputs, seed int64, stream string) *pairSource {
	return &pairSource{present: in.present, rng: gen.NewRNG(streamSeed(seed, stream))}
}

func (p *pairSource) vertex() graph.VertexID {
	return p.present[p.rng.Int63n(int64(len(p.present)))]
}

func (p *pairSource) next() request {
	for {
		s, d := p.vertex(), p.vertex()
		if s != d {
			return request{Source: s, Dest: d}
		}
	}
}

// costed is a query with the work the reference BFS does for it
// (adjacency entries scanned).
type costed struct {
	q    request
	work int64
}

// stratify ranks pool by work, cuts the ranking into n strata of equal
// size, and shuffles each stratum.
func stratify(pool []costed, n int, rng *gen.RNG) [][]request {
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].work < pool[j].work })
	per := len(pool) / n
	out := make([][]request, n)
	for s := range out {
		for _, i := range rng.Perm(per) {
			out[s] = append(out[s], pool[s*per+int(i)].q)
		}
	}
	return out
}

// stratifiedPairs draws strata*perStratum random BFS pairs, stratifies
// them by cost (see stratify), and orders them so that every run of
// strata consecutive queries takes one pair from each stratum, in a
// seeded order. A run that stops after any multiple of strata queries
// has therefore sampled every part of the cost distribution equally:
// the mix of cheap and expensive searches, which otherwise dominates
// the spread of a short run's percentiles, is fixed. The pairs are
// still uniformly random within each stratum.
func stratifiedPairs(in *inputs, o *oracle, seed int64, stream string, strata, perStratum int) []request {
	ps := newPairSource(in, seed, stream)
	pool := make([]costed, strata*perStratum)
	for i := range pool {
		q := ps.next()
		_, work := o.search(q.Source, q.Dest, maxBFSLevels)
		pool[i] = costed{q, work}
	}
	st := stratify(pool, strata, ps.rng)
	out := make([]request, 0, len(pool))
	for k := 0; k < perStratum; k++ {
		for _, s := range ps.rng.Perm(strata) {
			out = append(out, st[s][k])
		}
	}
	return out
}

// medianPairs draws a pool of random BFS pairs and returns the n whose
// reference work is closest to the pool's median: warm-up searches of a
// typical, seed-independent cost.
func medianPairs(in *inputs, o *oracle, seed int64, stream string, n int) []request {
	ps := newPairSource(in, seed, stream)
	pool := make([]costed, 16*n+1)
	for i := range pool {
		q := ps.next()
		_, work := o.search(q.Source, q.Dest, maxBFSLevels)
		pool[i] = costed{q, work}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].work < pool[j].work })
	mid := len(pool)/2 - n/2
	out := make([]request, n)
	for i := range out {
		out[i] = pool[mid+i].q
	}
	return out
}

// distance2Probes draws n BFS pairs whose reference distance is exactly
// 2: a source, a neighbour of one of its neighbours that is not its own
// neighbour. Such a search expands the source and then every one of its
// neighbours, so it reads a handful of freshly written adjacency chains.
// The n probes are a stratified sample: one from each of n cost strata
// of a pool ten times larger, in a seeded order. Every load is probed
// with the same cost mix, so the few expensive probes that set the tail
// are not a matter of luck.
func distance2Probes(in *inputs, o *oracle, seed int64, stream string, n int) []request {
	ps := newPairSource(in, seed, stream)
	pick := func(v graph.VertexID) graph.VertexID {
		nb := o.adj[v]
		return nb[ps.rng.Int63n(int64(len(nb)))]
	}
	pool := make([]costed, 0, 10*n)
	for len(pool) < cap(pool) {
		u := ps.vertex()
		v := pick(pick(u))
		if length, work := o.search(u, v, 2); length == 2 {
			pool = append(pool, costed{request{Source: u, Dest: v}, work})
		}
	}
	st := stratify(pool, n, ps.rng)
	out := make([]request, n)
	for i, s := range ps.rng.Perm(n) {
		out[i] = st[s][0]
	}
	return out
}

// round is one serve-mixed round: the requests both clients issue
// (client c takes positions c, c+clients, ...) and the slice of the edge
// stream committed once they have all completed.
type round struct {
	Requests []request
	Commit   []graph.Edge
}

// schedule is serve-mixed's deterministic query/commit schedule.
type schedule struct {
	// Prefix is loaded during set-up; rounds commit the rest.
	Prefix []graph.Edge
	Rounds []round
}

// scheduleConfig sizes a serve-mixed schedule.
type scheduleConfig struct {
	prefixShare  float64 // share of the stream loaded before serving
	rounds       int     // commits the remainder in this many slices
	perRound     int     // requests per round, across all clients
	repeatShare  float64 // probability a request repeats an earlier one
	repeatWindow int     // a repeat reaches at least this far back
	khopShare    float64 // probability a fresh request is a 2-hop count
}

// makeSchedule draws the serve-mixed schedule for one seed and stream.
// Repeats copy a request at least repeatWindow positions earlier in the
// same round, so with two closed-loop clients the original has usually
// completed and the repeat can be a result-cache hit.
func makeSchedule(in *inputs, sc scheduleConfig, seed int64, stream string) *schedule {
	n := int(float64(len(in.edges)) * sc.prefixShare)
	s := &schedule{Prefix: in.edges[:n]}
	rest := in.edges[n:]
	ps := newPairSource(in, seed, stream)
	rng := ps.rng
	for r := 0; r < sc.rounds; r++ {
		lo, hi := len(rest)*r/sc.rounds, len(rest)*(r+1)/sc.rounds
		rd := round{Commit: rest[lo:hi]}
		for i := 0; i < sc.perRound; i++ {
			if i >= sc.repeatWindow && rng.Float64() < sc.repeatShare {
				j := rng.Int63n(int64(i - sc.repeatWindow + 1))
				rd.Requests = append(rd.Requests, rd.Requests[j])
				continue
			}
			var q request
			if rng.Float64() < sc.khopShare {
				q = request{Source: ps.vertex(), K: 2}
			} else {
				q = ps.next()
			}
			rd.Requests = append(rd.Requests, q)
		}
		s.Rounds = append(s.Rounds, rd)
	}
	return s
}
