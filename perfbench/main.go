// Command perfbench is MSSG's benchmark. It runs one workload against
// the program's public APIs for a fixed time, checks every answer
// against a serial in-memory reference, and prints each end-to-end
// metric by name with its unit; the last line of its output is one JSON
// object. With --trace 1 it runs the same workload through wrapped
// layers and prints the per-layer metrics instead, writing the spans to
// .bench_build/traces.
//
//	bash perfbench/run.sh --workload bfs-ooc --seed 1 --seconds 30 --trace 0
//
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	_ "mssg/internal/graphdb/all"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(*bench) (*result, error){
	"ingest-ooc":  runIngestOOC,
	"bfs-ooc":     runBFSOOC,
	"serve-mixed": runServeMixed,
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: ingest-ooc, bfs-ooc or serve-mixed")
	seed := fl.Int64("seed", 1, "input seed (graph generator and query sequence)")
	seconds := fl.Float64("seconds", 30, "measured seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := fl.String("dir", ".bench_build", "scratch directory for databases and traces")
	if err := fl.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*root, "work-"+*name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *name, seed: *seed, dir: dir, size: sizings[*name],
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	r, err := runWorkload(b)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e2e := endToEnd(r, rss)
	report := e2e
	if b.tr != nil {
		path := filepath.Join(*root, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		report = perLayer(r, b, e2e)
		if err := b.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", b.tr.spanCount(), path)
	}
	printSummary(out, b, r, e2e)
	return printJSON(out, r, report)
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// rate divides n by ns nanoseconds, per second (0 without time).
func rate(n, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(n) / (float64(ns) / 1e9)
}

// ratio divides n by d (0 when d is 0).
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// endToEnd derives the end-to-end metrics. Every workload reports all of
// them; README.md says what each measures on each workload. Rates are
// medians over samples (see result.rates): a burst of interference on a
// shared machine then moves one sample, not the figure.
func endToEnd(r *result, rss float64) []metric {
	s := r.lat.summarize(r.tailP)
	return []metric{
		{"setup_s", "s", medianOf(r.setup)},
		{"ingest_edges_per_s", "edges/s", medianOf(r.rates.ingest)},
		{"stored_bytes_per_edge", "B/edge", medianOf(r.bytesPerEdge)},
		{"bfs_edges_per_s", "edges/s", medianOf(r.rates.edges)},
		{"query_p50_ms", "ms", s.P50},
		{"query_tail_ms", "ms", s.Tail},
		{"serve_qps", "1/s", medianOf(r.rates.qps)},
		{"peak_rss_mb", "MB", rss},
	}
}

// perLayer derives the traced run's per-layer metrics, followed by the
// traced run's own end-to-end figures (traced.*): their difference from
// an untraced run of the same seed is the tracing overhead.
func perLayer(r *result, b *bench, e2e []metric) []metric {
	tr := b.tr
	qw := r.queueWait.summarize(r.tailP)
	adj, store, flush := tr.total(kAdjacency), tr.total(kStore), tr.total(kFlush)
	send, recv, read := tr.total(kSend), tr.total(kRecv), tr.total(kRead)
	dio := r.w.io
	device := time.Duration(dio.reads+dio.writes)*blockOpLatency +
		time.Duration(dio.bytesRead+dio.bytesWritten)*b.size.transfer
	out := []metric{
		{"engine.queue_wait_p50_ms", "ms", zeroNaN(qw.P50)},
		{"engine.queue_wait_tail_ms", "ms", zeroNaN(qw.Tail)},
		{"engine.exec_ms", "ms", zeroNaN(r.exec.summarize(50).P50)},
		{"engine.rejected", "count", float64(r.rejected)},
		{"qcache.hit_ratio", "ratio", ratio(r.cacheHits, r.requests)},
		{"qcache.lookups", "count", float64(r.requests)},
		{"qcache.repeat_share", "ratio", ratio(r.repeats, r.requests)},
		{"query.queries", "count", float64(r.w.queries)},
		{"query.levels", "count", float64(r.w.levels)},
		{"query.edges_traversed", "count", float64(r.w.edgesTraversed)},
		{"query.vertices_visited", "count", float64(r.w.verticesVisited)},
		{"query.fringe_sent", "count", float64(r.w.fringeSent)},
		{"query.expand_ms", "ms", nsToMs(r.expandNs)},
		{"query.exchange_ms", "ms", nsToMs(r.levelNs - r.expandNs)},
		{"query.unattributed_ms", "ms", nsToMs(r.execNs - r.levelNs)},
		{"cluster.msgs", "count", float64(send.calls)},
		{"cluster.bytes", "B", float64(send.units)},
		{"cluster.send_ms", "ms", nsToMs(send.ns)},
		{"cluster.recv_wait_ms", "ms", nsToMs(recv.ns)},
		{"ingest.edges_in", "count", float64(r.w.edgesIn)},
		{"ingest.read_ms", "ms", nsToMs(read.ns)},
		{"ingest.windows", "count", float64(r.w.windows)},
		{"ingest.dup_windows", "count", float64(r.w.dupWindows)},
		{"ingest.retries", "count", float64(r.w.retries)},
		{"ingest.frontend_ms", "ms", nsToMs(r.frontendNs)},
		{"graphdb.adjacency_calls", "count", float64(adj.calls)},
		{"graphdb.adjacency_ms", "ms", nsToMs(adj.ns)},
		{"graphdb.neighbors", "count", float64(adj.units)},
		{"graphdb.store_calls", "count", float64(store.calls)},
		{"graphdb.store_ms", "ms", nsToMs(store.ns)},
		{"graphdb.flush_ms", "ms", nsToMs(flush.ns)},
		{"cache.hit_ratio", "ratio", ratio(dio.hits, dio.hits+dio.misses)},
		{"cache.lookups", "count", float64(dio.hits + dio.misses)},
		{"blockio.reads", "count", float64(dio.reads)},
		{"blockio.writes", "count", float64(dio.writes)},
		{"blockio.bytes_read", "B", float64(dio.bytesRead)},
		{"blockio.bytes_written", "B", float64(dio.bytesWritten)},
		{"blockio.device_ms", "ms-model", float64(device) / float64(time.Millisecond)},
		{"blockio.writes_per_edge", "count/edge", ratio(dio.writes, r.w.edgesIn)},
		{"blockio.reads_per_query", "count/query", ratio(dio.reads, r.w.queries)},
		{"trace.spans", "count", float64(tr.spanCount())},
	}
	for _, m := range e2e {
		out = append(out, metric{"traced." + m.name, m.unit, m.value})
	}
	return out
}

// zeroNaN maps the NaN of an empty distribution to 0.
func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// printSummary writes the human-readable report.
func printSummary(out io.Writer, b *bench, r *result, e2e []metric) {
	s := r.lat.summarize(r.tailP)
	mode := "untraced"
	if b.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s, seed %d, %s, %v measured\n", b.workload, b.seed, mode, b.budget)
	fmt.Fprintf(out, "sizes: %d input edges, %.0f stored bytes over %d back-ends, %d block-cache bytes in total (stored/cache %.2f)\n",
		r.graphEdges, r.storedBytes, backends, backends*b.size.cacheBytes, r.storedBytes/float64(backends*b.size.cacheBytes))
	for _, m := range e2e {
		fmt.Fprintf(out, "%-24s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "%-24s %14.4f (%d failed of %d attempted)\n", "failed_ratio", ratio(r.failed, r.attempted), r.failed, r.attempted)
	note := ""
	if p, ok := tailPercentile(s.N); ok {
		note = fmt.Sprintf("; the ≥%d-beyond rule admits up to p%g", minBeyond, p)
	}
	if s.Beyond < minBeyond {
		note += fmt.Sprintf("; fewer than %d beyond the tail", minBeyond)
	}
	xs := append([]float64(nil), r.lat.ms...)
	sort.Float64s(xs)
	fmt.Fprint(out, "query latency percentiles (ms):")
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		fmt.Fprintf(out, " p%g=%.2f", p, percentile(xs, p))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "query latency: %d samples, p50 and p%g reported, %d beyond p%g%s\n", s.N, s.TailP, s.Beyond, s.TailP, note)
	if r.requests > 0 {
		fmt.Fprintf(out, "serving: %d requests, %d repeat one since the last commit (%.3f), %d result-cache hits\n",
			r.requests, r.repeats, ratio(r.repeats, r.requests), r.cacheHits)
	}
	for _, w := range r.wrong {
		fmt.Fprintln(out, "FAILED:", w)
	}
}

// printJSON writes the result line: whether every answer was right, the
// operations attempted and failed, and the metrics with their units.
func printJSON(out io.Writer, r *result, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
