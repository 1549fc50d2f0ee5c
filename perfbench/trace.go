package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// the calls it makes into each layer's public functions (spans inside
// the program are a later change). Calls that happen at a high rate —
// adjacency fetches, stores, fabric sends and receives, edge reads — are
// not recorded one span each: the wrappers in wrap.go add them to the
// scope that is current when they run, per kind and per node, and the
// scope emits one aggregate child span per (kind, node) when it ends.

// kind names one family of aggregated calls.
type kind int

const (
	kAdjacency kind = iota // graphdb adjacency retrieval (units: neighbours)
	kStore                 // graphdb.StoreEdges (units: edges)
	kFlush                 // graphdb.Flush
	kSend                  // cluster Send/Broadcast (calls: messages, units: bytes)
	kRecv                  // cluster Recv/RecvCtx, time blocked (units: bytes)
	kRead                  // graph.EdgeReader.ReadEdge (units: edges)
	numKinds
)

var kindNames = [numKinds]string{
	"graphdb.adjacency", "graphdb.store", "graphdb.flush",
	"cluster.send", "cluster.recv_wait", "ingest.read",
}

// maxTraceNodes bounds the per-node counters (back-ends and front-end
// copies).
const maxTraceNodes = 16

type callCounter struct{ calls, ns, units atomic.Int64 }

// agg is a set of per-kind, per-node call counters.
type agg [numKinds][maxTraceNodes]callCounter

// tally is a plain snapshot of one kind's counters summed over nodes.
type tally struct{ calls, ns, units int64 }

// span is one recorded interval. Aggregate spans (Calls > 0) stand for
// Calls calls inside [Start, End] on one node whose durations sum to
// BusyNs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
	Units  int64  `json:"units,omitempty"`
	// SelfNs is the span's duration minus the busiest node's summed
	// child time (children on one node run one after another).
	SelfNs int64 `json:"self_ns"`
}

// scope is an open span that collects aggregated calls.
type scope struct {
	tr    *tracer
	id    int
	req   int64
	name  string
	start time.Time
	timed bool
	c     agg
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	cur   atomic.Pointer[scope]

	mu     sync.Mutex
	nextID int
	spans  []span
	// totals sums the aggregated calls of timed scopes per kind.
	totals [numKinds]tally
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a scope and makes it current: wrapped calls from now until
// end are attributed to it. Scopes do not nest; timed marks scopes
// inside the measured phase, whose calls feed the per-layer metrics.
func (t *tracer) begin(name string, req int64, timed bool) *scope {
	s := &scope{tr: t, id: t.id(), req: req, name: name, start: time.Now(), timed: timed}
	t.cur.Store(s)
	return s
}

// end closes the scope, records it with its aggregate children, and
// returns the aggregated calls per kind and node.
func (s *scope) end() (out [numKinds][maxTraceNodes]tally) {
	t := s.tr
	t.cur.CompareAndSwap(s, nil)
	end := time.Now()
	var busy [maxTraceNodes]int64
	var children []span
	for k := kind(0); k < numKinds; k++ {
		for n := range s.c[k] {
			c := &s.c[k][n]
			calls := c.calls.Load()
			if calls == 0 {
				continue
			}
			ns, units := c.ns.Load(), c.units.Load()
			out[k][n] = tally{calls, ns, units}
			busy[n] += ns
			children = append(children, span{
				Parent: s.id, Req: s.req, Name: kindNames[k], Node: n,
				Start: t.rel(s.start), End: t.rel(end),
				Calls: calls, BusyNs: ns, Units: units, SelfNs: ns,
			})
			if s.timed {
				t.mu.Lock()
				t.totals[k].calls += calls
				t.totals[k].ns += ns
				t.totals[k].units += units
				t.mu.Unlock()
			}
		}
	}
	var maxBusy int64
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
	}
	self := end.Sub(s.start).Nanoseconds() - maxBusy
	t.record(append([]span{{
		ID: s.id, Req: s.req, Name: s.name, Node: -1,
		Start: t.rel(s.start), End: t.rel(end), SelfNs: max(self, 0),
	}}, children...))
	return out
}

// child records a finished span under scope s (used for per-query
// engine spans whose times come from query.Query).
func (s *scope) child(name string, req int64, start, end time.Time) {
	s.tr.record([]span{{
		Parent: s.id, Req: req, Name: name, Node: -1,
		Start: s.tr.rel(start), End: s.tr.rel(end), SelfNs: end.Sub(start).Nanoseconds(),
	}})
}

func (t *tracer) rel(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) record(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range spans {
		if spans[i].ID == 0 {
			t.nextID++
			spans[i].ID = t.nextID
		}
	}
	t.spans = append(t.spans, spans...)
}

// total returns the timed-phase totals of one kind.
func (t *tracer) total(k kind) tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[k]
}

// timer starts timing one wrapped call; nil when no scope is open.
func (t *tracer) timer() (*scope, time.Time) {
	s := t.cur.Load()
	if s == nil {
		return nil, time.Time{}
	}
	return s, time.Now()
}

// add attributes one finished call to the scope that was current when
// it started.
func (s *scope) add(k kind, node int, start time.Time, calls, units int64) {
	if s == nil {
		return
	}
	c := &s.c[k][node%maxTraceNodes]
	c.calls.Add(calls)
	c.ns.Add(time.Since(start).Nanoseconds())
	c.units.Add(units)
}

// layerSummary is one span name's totals in the written trace.
type layerSummary struct {
	Spans   int   `json:"spans"`
	Calls   int64 `json:"calls"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// write stores every span and a per-name summary as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	sum := make(map[string]*layerSummary)
	for _, s := range spans {
		l := sum[s.Name]
		if l == nil {
			l = &layerSummary{}
			sum[s.Name] = l
		}
		l.Spans++
		l.Calls += s.Calls
		if s.Calls > 0 {
			l.TotalNs += s.BusyNs
		} else {
			l.TotalNs += s.End - s.Start
		}
		l.SelfNs += s.SelfNs
	}
	b, err := json.Marshal(struct {
		Summary map[string]*layerSummary `json:"summary"`
		Spans   []span                   `json:"spans"`
	}{sum, spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCount is the number of spans recorded so far.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
