package main

import "mssg/internal/graph"

// oracle is the serial in-memory reference the benchmark checks every
// answer against: the adjacency of the undirected graph the program
// stores (every input edge in both orientations). It is built and
// queried outside the timed intervals.
type oracle struct {
	adj [][]graph.VertexID
	// mark[v] == epoch marks v visited by the current search.
	mark  []uint32
	epoch uint32
}

// newOracle builds the reference over vertex ids [0, vertices).
func newOracle(vertices int64, edges []graph.Edge) *oracle {
	o := &oracle{adj: make([][]graph.VertexID, vertices), mark: make([]uint32, vertices)}
	o.add(edges)
	return o
}

// add extends the reference with more of the edge stream, as an ingest
// commit extends the stored graph.
func (o *oracle) add(edges []graph.Edge) {
	for _, e := range edges {
		o.adj[e.Src] = append(o.adj[e.Src], e.Dst)
		o.adj[e.Dst] = append(o.adj[e.Dst], e.Src)
	}
}

// levels runs a serial level-synchronous BFS from src for at most
// maxLevel levels. It calls visit(v, level) for every vertex first
// reached and stops after the level in which visit returned false. It
// returns the adjacency entries scanned, which is the work the program's
// BFS reports as EdgesTraversed.
func (o *oracle) levels(src graph.VertexID, maxLevel int, visit func(v graph.VertexID, level int) bool) (scanned int64) {
	o.epoch++
	o.mark[src] = o.epoch
	fringe := []graph.VertexID{src}
	for level := 1; level <= maxLevel && len(fringe) > 0; level++ {
		var next []graph.VertexID
		stop := false
		for _, u := range fringe {
			nb := o.adj[u]
			scanned += int64(len(nb))
			for _, w := range nb {
				if o.mark[w] == o.epoch {
					continue
				}
				o.mark[w] = o.epoch
				if !visit(w, level) {
					stop = true
				}
				next = append(next, w)
			}
		}
		if stop {
			break
		}
		fringe = next
	}
	return scanned
}

// search is a BFS from src to dst: the distance (-1 when dst is not
// reachable within maxLevel levels) and the adjacency entries scanned.
func (o *oracle) search(src, dst graph.VertexID, maxLevel int) (length int32, scanned int64) {
	if src == dst {
		return 0, 0
	}
	length = -1
	scanned = o.levels(src, maxLevel, func(v graph.VertexID, level int) bool {
		if v == dst {
			length = int32(level)
			return false
		}
		return true
	})
	return length, scanned
}

// khop counts the distinct vertices within k hops of src, src excluded.
func (o *oracle) khop(src graph.VertexID, k int) int64 {
	var n int64
	o.levels(src, k, func(graph.VertexID, int) bool { n++; return true })
	return n
}

// answer is the reference answer to r: the path length of a BFS, the
// neighbourhood size of a k-hop count.
func (o *oracle) answer(r request) int64 {
	if r.K > 0 {
		return o.khop(r.Source, r.K)
	}
	length, _ := o.search(r.Source, r.Dest, maxBFSLevels)
	return int64(length)
}

// maxBFSLevels matches query.BFSConfig's default MaxLevels.
const maxBFSLevels = 64
