package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/datacutter"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// system is what a workload drives. The untraced run uses *core.Engine
// itself; the traced run uses a rig assembled from the same layers'
// public constructors, with every value it hands the program wrapped.
type system interface {
	IngestEdges(edges []graph.Edge) (*ingest.Stats, error)
	BFS(cfg query.BFSConfig) (query.BFSResult, error)
	NewQueryEngine(cfg query.EngineConfig) (*query.Engine, error)
	Databases() []graphdb.Graph
	Close() error
}

var _ system = (*core.Engine)(nil)

// openSystem opens cfg as a core.Engine, or as a traced rig when tr is
// set.
func openSystem(cfg core.Config, tr *tracer) (system, error) {
	if tr == nil {
		return core.New(cfg)
	}
	return newRig(cfg, tr)
}

// rig mirrors core.Engine for the configurations the workloads use (no
// placement holder, no faults, no replication): the same fabric, one
// graphdb instance per node, ingest.BuildGraph run on the datacutter
// runtime, query.ParallelBFS, and query.NewEngine with result-cache
// invalidation after every ingest commit.
type rig struct {
	cfg    core.Config
	tr     *tracer
	fabric cluster.Fabric
	dbs    []graphdb.Graph

	mu       sync.Mutex
	qengines []*query.Engine
}

func newRig(cfg core.Config, tr *tracer) (*rig, error) {
	if cfg.Placement != nil || cfg.Fault != nil || cfg.Reliable {
		return nil, fmt.Errorf("perfbench: the traced rig does not mirror placement, faults or the reliable layer")
	}
	var f cluster.Fabric
	switch cfg.Fabric {
	case core.InProc:
		f = cluster.NewInProc(cfg.Backends, cfg.MailboxBuffer)
	case core.TCP:
		var err error
		if f, err = cluster.NewTCP(cfg.Backends, cfg.MailboxBuffer); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("perfbench: unknown fabric kind %d", cfg.Fabric)
	}
	wf, err := tr.wrapFabric(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &rig{cfg: cfg, tr: tr, fabric: wf}
	for i := 0; i < cfg.Backends; i++ {
		opts := cfg.DBOptions
		opts.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("node%03d", i))
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			r.Close()
			return nil, err
		}
		db, err := graphdb.Open(cfg.Backend, opts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("opening %s on node %d: %w", cfg.Backend, i, err)
		}
		w, err := tr.wrapGraph(db, i)
		if err != nil {
			db.Close()
			r.Close()
			return nil, err
		}
		r.dbs = append(r.dbs, w)
	}
	return r, nil
}

func (r *rig) Databases() []graphdb.Graph { return r.dbs }

// IngestEdges splits edges evenly across the front-ends, as
// core.Engine.IngestEdges does, and times every reader.
func (r *rig) IngestEdges(edges []graph.Edge) (*ingest.Stats, error) {
	icfg := r.cfg.Ingest
	icfg.FrontEnds = max(r.cfg.FrontEnds, 1)
	icfg.Backends = r.cfg.Backends
	if r.cfg.DBOptions.Durability >= graphdb.DurabilityFull {
		icfg.Durable = true
	}
	stats := &ingest.Stats{}
	g := datacutter.NewGraph()
	f := icfg.FrontEnds
	err := ingest.BuildGraph(g, icfg, stats,
		func(copy int) (graph.EdgeReader, error) {
			lo, hi := len(edges)*copy/f, len(edges)*(copy+1)/f
			return &tReader{inner: &sliceReader{edges: edges[lo:hi]}, copy: copy, tr: r.tr}, nil
		},
		func(copy int) graphdb.Graph { return r.dbs[copy] },
		datacutter.PlaceCopies(f),
		datacutter.PlaceOnePerNode(),
	)
	if err != nil {
		return nil, err
	}
	runErr := datacutter.NewRuntime(r.fabric).RunWith(g, datacutter.RunOptions{})
	r.mu.Lock()
	qes := append([]*query.Engine(nil), r.qengines...)
	r.mu.Unlock()
	for _, qe := range qes {
		qe.InvalidateCache()
	}
	return stats, runErr
}

func (r *rig) BFS(cfg query.BFSConfig) (query.BFSResult, error) {
	return query.ParallelBFS(context.Background(), r.fabric, r.dbs, cfg)
}

func (r *rig) NewQueryEngine(cfg query.EngineConfig) (*query.Engine, error) {
	qe, err := query.NewEngine(r.fabric, r.dbs, cfg)
	if err != nil {
		return nil, err
	}
	if qe.Cache() != nil {
		r.mu.Lock()
		r.qengines = append(r.qengines, qe)
		r.mu.Unlock()
	}
	return qe, nil
}

func (r *rig) Close() error {
	var first error
	for _, db := range r.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := r.fabric.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

type sliceReader struct {
	edges []graph.Edge
	pos   int
}

func (s *sliceReader) ReadEdge() (graph.Edge, error) {
	if s.pos >= len(s.edges) {
		return graph.Edge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}
