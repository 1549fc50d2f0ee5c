package main

import (
	"context"
	"fmt"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// Wrappers time the calls the program makes into the values the traced
// run hands it. They must not change what the program does: a wrapped
// graphdb.Graph implements exactly the optional extensions its inner
// value implements (callers branch on them with type assertions), and
// the fabric wrapper forwards every method.

// tGraph times the core graphdb.Graph methods of one back-end.
type tGraph struct {
	inner graphdb.Graph
	node  int
	tr    *tracer
}

func (g *tGraph) StoreEdges(edges []graph.Edge) error {
	s, t0 := g.tr.timer()
	err := g.inner.StoreEdges(edges)
	s.add(kStore, g.node, t0, 1, int64(len(edges)))
	return err
}

func (g *tGraph) Metadata(v graph.VertexID) (int32, error) { return g.inner.Metadata(v) }

func (g *tGraph) SetMetadata(v graph.VertexID, md int32) error { return g.inner.SetMetadata(v, md) }

func (g *tGraph) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	s, t0 := g.tr.timer()
	n := out.Len()
	err := g.inner.AdjacencyUsingMetadata(v, out, md, op)
	s.add(kAdjacency, g.node, t0, 1, int64(out.Len()-n))
	return err
}

func (g *tGraph) Flush() error {
	s, t0 := g.tr.timer()
	err := g.inner.Flush()
	s.add(kFlush, g.node, t0, 1, 0)
	return err
}

func (g *tGraph) Close() error            { return g.inner.Close() }
func (g *tGraph) Stats() graphdb.Stats    { return g.inner.Stats() }
func (g *tGraph) ConcurrentReaders() bool { return g.inner.ConcurrentReaders() }

// unwrap returns the value a wrapper was built around (db itself when
// it is not a wrapper).
func unwrap(db graphdb.Graph) graphdb.Graph {
	if w, ok := db.(interface{ base() *tGraph }); ok {
		return w.base().inner
	}
	return db
}

func (g *tGraph) base() *tGraph { return g }

// tBatch adds a timed graphdb.BatchGraph.
type tBatch struct {
	*tGraph
	b graphdb.BatchGraph
}

func (g tBatch) AdjacencyBatch(fringe []graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	s, t0 := g.tr.timer()
	n := out.Len()
	err := g.b.AdjacencyBatch(fringe, out, md, op)
	s.add(kAdjacency, g.node, t0, int64(len(fringe)), int64(out.Len()-n))
	return err
}

// ioFwd and cacheFwd forward the two extensions whose method shares the
// interface's name: embedding those interfaces directly would declare a
// field of that name, which hides the method.
type ioFwd struct{ c graphdb.IOCounters }

func (f ioFwd) IOCounters() (blockReads, blockWrites int64) { return f.c.IOCounters() }

type cacheFwd struct{ c graphdb.CacheStats }

func (f cacheFwd) CacheStats() (hits, misses int64) { return f.c.CacheStats() }

// Extension sets, one type per combination a registered backend has.
// Untimed extensions are forwarded by embedding the inner value's
// interface.
type (
	tGraphIOCache struct {
		*tGraph
		ioFwd
		cacheFwd
	}
	tGraphScan struct {
		*tGraph
		graphdb.VertexScanner
	}
	tGraphBatchIO struct {
		tBatch
		ioFwd
	}
	tGraphGrDB struct {
		*tGraph
		graphdb.DegreeReader
		graphdb.Prefetcher
		graphdb.AsyncPrefetcher
		graphdb.Checkpointer
		graphdb.VertexScanner
		graphdb.GenerationReader
		ioFwd
		cacheFwd
	}
)

// Extension bits, in the order graphdb declares the interfaces.
const (
	extBatch = 1 << iota
	extDegree
	extPrefetch
	extAsyncPrefetch
	extCheckpoint
	extScan
	extGeneration
	extIO
	extCache
)

// extensions returns the optional graphdb interfaces db implements.
func extensions(db graphdb.Graph) int {
	var m int
	set := func(ok bool, bit int) {
		if ok {
			m |= bit
		}
	}
	_, ok := db.(graphdb.BatchGraph)
	set(ok, extBatch)
	_, ok = db.(graphdb.DegreeReader)
	set(ok, extDegree)
	_, ok = db.(graphdb.Prefetcher)
	set(ok, extPrefetch)
	_, ok = db.(graphdb.AsyncPrefetcher)
	set(ok, extAsyncPrefetch)
	_, ok = db.(graphdb.Checkpointer)
	set(ok, extCheckpoint)
	_, ok = db.(graphdb.VertexScanner)
	set(ok, extScan)
	_, ok = db.(graphdb.GenerationReader)
	set(ok, extGeneration)
	_, ok = db.(graphdb.IOCounters)
	set(ok, extIO)
	_, ok = db.(graphdb.CacheStats)
	set(ok, extCache)
	return m
}

// wrapGraph wraps back-end node's database. It refuses an extension set
// it has no exact wrapper for rather than hide or invent an extension.
func (t *tracer) wrapGraph(db graphdb.Graph, node int) (graphdb.Graph, error) {
	g := &tGraph{inner: db, node: node, tr: t}
	switch extensions(db) {
	case 0:
		return g, nil
	case extIO | extCache:
		return tGraphIOCache{g, ioFwd{db.(graphdb.IOCounters)}, cacheFwd{db.(graphdb.CacheStats)}}, nil
	case extScan:
		return tGraphScan{g, db.(graphdb.VertexScanner)}, nil
	case extBatch | extIO:
		return tGraphBatchIO{tBatch{g, db.(graphdb.BatchGraph)}, ioFwd{db.(graphdb.IOCounters)}}, nil
	case extDegree | extPrefetch | extAsyncPrefetch | extCheckpoint | extScan | extGeneration | extIO | extCache:
		return tGraphGrDB{g,
			db.(graphdb.DegreeReader), db.(graphdb.Prefetcher), db.(graphdb.AsyncPrefetcher),
			db.(graphdb.Checkpointer), db.(graphdb.VertexScanner), db.(graphdb.GenerationReader),
			ioFwd{db.(graphdb.IOCounters)}, cacheFwd{db.(graphdb.CacheStats)}}, nil
	}
	return nil, fmt.Errorf("perfbench: no exact wrapper for %T (extension set %#x)", db, extensions(db))
}

// tFabric forwards every cluster.Fabric method; its endpoints time sends
// and blocking receives.
type tFabric struct {
	inner cluster.Fabric
	eps   []cluster.Endpoint
}

func (f *tFabric) Nodes() int                                 { return f.inner.Nodes() }
func (f *tFabric) Endpoint(n cluster.NodeID) cluster.Endpoint { return f.eps[n] }
func (f *tFabric) Close() error                               { return f.inner.Close() }

// wrapFabric wraps a plain transport. Fabrics with failure-handling
// extensions (health views, node killers, layered fabrics) are refused:
// the workloads never use them and the wrapper would hide them.
func (t *tracer) wrapFabric(f cluster.Fabric) (cluster.Fabric, error) {
	switch f.(type) {
	case cluster.HealthReporter, cluster.NodeKiller, interface{ Unwrap() cluster.Fabric }:
		return nil, fmt.Errorf("perfbench: no exact wrapper for fabric %T", f)
	}
	w := &tFabric{inner: f}
	for n := 0; n < f.Nodes(); n++ {
		w.eps = append(w.eps, &tEndpoint{inner: f.Endpoint(cluster.NodeID(n)), tr: t})
	}
	return w, nil
}

type tEndpoint struct {
	inner cluster.Endpoint
	tr    *tracer
}

func (e *tEndpoint) ID() cluster.NodeID { return e.inner.ID() }
func (e *tEndpoint) Nodes() int         { return e.inner.Nodes() }

func (e *tEndpoint) Send(to cluster.NodeID, ch cluster.ChannelID, payload []byte) error {
	s, t0 := e.tr.timer()
	n := int64(len(payload))
	err := e.inner.Send(to, ch, payload)
	s.add(kSend, int(e.inner.ID()), t0, 1, n)
	return err
}

func (e *tEndpoint) Broadcast(ch cluster.ChannelID, payload []byte) error {
	s, t0 := e.tr.timer()
	peers := int64(e.inner.Nodes() - 1)
	n := int64(len(payload))
	err := e.inner.Broadcast(ch, payload)
	s.add(kSend, int(e.inner.ID()), t0, peers, peers*n)
	return err
}

func (e *tEndpoint) Recv(ch cluster.ChannelID) (cluster.Message, error) {
	s, t0 := e.tr.timer()
	m, err := e.inner.Recv(ch)
	s.add(kRecv, int(e.inner.ID()), t0, 1, int64(len(m.Payload)))
	return m, err
}

func (e *tEndpoint) RecvCtx(ctx context.Context, ch cluster.ChannelID) (cluster.Message, error) {
	s, t0 := e.tr.timer()
	m, err := e.inner.RecvCtx(ctx, ch)
	s.add(kRecv, int(e.inner.ID()), t0, 1, int64(len(m.Payload)))
	return m, err
}

func (e *tEndpoint) TryRecv(ch cluster.ChannelID) (cluster.Message, bool, error) {
	return e.inner.TryRecv(ch)
}

// tReader times one front-end copy's edge reads.
type tReader struct {
	inner graph.EdgeReader
	copy  int
	tr    *tracer
}

func (r *tReader) ReadEdge() (graph.Edge, error) {
	s, t0 := r.tr.timer()
	e, err := r.inner.ReadEdge()
	if err == nil {
		s.add(kRead, r.copy, t0, 1, 1)
	} else {
		s.add(kRead, r.copy, t0, 1, 0)
	}
	return e, err
}

// nsToMs converts a duration sum in nanoseconds to milliseconds.
func nsToMs(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
