package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"pairfn/internal/cluster"
	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/tabled"
)

// maxOverhead is the tracing overhead at which a traced run fails.
const maxOverhead = 0.05

// accountingTolerance is how far client self + net self + server request
// may stray from the client batch time before the traced run warns.
const accountingTolerance = 0.10

// replayBatches is how many capacity batches the single-threaded replay
// runs through the in-process layers.
const replayBatches = 20000

// A scrape is every daemon's /metrics and CPU time, plus this process's
// CPU time, at one instant.
type scrape struct {
	prom []promSet
	cpu  []time.Duration
	self time.Duration
}

func scrapeAll(ctx context.Context, dp *deployment) (*scrape, error) {
	s := &scrape{}
	for _, d := range dp.all {
		p, err := fetchMetrics(ctx, d)
		if err != nil {
			return nil, err
		}
		c, err := cpuTime(fmt.Sprint(d.pid()))
		if err != nil {
			return nil, err
		}
		s.prom = append(s.prom, p)
		s.cpu = append(s.cpu, c)
	}
	self, err := cpuTime("self")
	if err != nil {
		return nil, err
	}
	s.self = self
	return s, nil
}

func fetchMetrics(ctx context.Context, d *daemon) (promSet, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", d.name, resp.Status)
	}
	return parseProm(body)
}

// counters are the daemon-side deltas over the traced phase.
type counters struct {
	delta []promSet       // per daemon
	last  []promSet       // per daemon, the closing scrape (for gauges)
	cpu   []time.Duration // per daemon
	self  time.Duration
}

func newCounters(before, after *scrape) *counters {
	c := &counters{last: after.prom, self: after.self - before.self}
	for i := range after.prom {
		c.delta = append(c.delta, delta(before.prom[i], after.prom[i]))
		c.cpu = append(c.cpu, after.cpu[i]-before.cpu[i])
	}
	return c
}

// traced runs setup once, warm-up, a capacity phase in which every other
// batch is traced, and the single-threaded replay, and reports the
// per-layer metrics. It writes trace.json and layers.json to traceDir.
//
// Tracing alternates batch by batch, so traced and untraced batches share
// the same moments of the run and a drift in the machine's speed cancels
// out of tracing.overhead_frac: 1 minus the ratio of their throughputs,
// which for a closed loop is the ratio of their mean latencies.
func (b *bench) traced(ctx context.Context, traceDir string) (*outcome, error) {
	dp, lg, _, err := b.setup(ctx, filepath.Join(b.dir, "setup0"), true)
	if err != nil {
		return nil, err
	}
	defer dp.stop()
	defer lg.tr.CloseIdleConnections()
	out := &outcome{}
	warm, _ := lg.run(ctx, schedule{p: phaseWarmup, d: warmup})
	out.addChecks(warm)

	epoch := time.Now()
	for c := range lg.recs {
		lg.recs[c] = newRecorder(epoch, c)
	}
	before, err := scrapeAll(ctx, dp)
	if err != nil {
		return nil, err
	}
	st, _ := lg.run(ctx, schedule{p: phaseCapacity, d: b.measure})
	after, err := scrapeAll(ctx, dp)
	if err != nil {
		return nil, err
	}
	recs := lg.recs[:]
	out.addChecks(st)
	out.attempted, out.failed = st.attempted, st.failed
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if st.tracedN == 0 || st.plainN == 0 || st.attempted == st.failed {
		return nil, fmt.Errorf("traced phase completed no batch (first error: %s)", st.firstErr)
	}
	dp.stop() // the replay's table of the skinny workload is large; free the daemons' memory first

	m := b.layerMetrics(dp, st, newCounters(before, after), recs)
	overhead := 1 - (st.plainNs/float64(st.plainN))/(st.tracedNs/float64(st.tracedN))
	m["tracing.overhead_frac"] = overhead
	// The replay stands in for the daemons' own code, so it runs under
	// their default GOGC; it also keeps the skinny table's heap small.
	debug.SetGCPercent(100)
	rep, rrec, err := b.replay(epoch)
	if err != nil {
		return nil, err
	}
	for name, v := range rep {
		m[name] = v
	}

	out.metrics = withUnits(m, layerUnits)
	b.info["traced_batches"] = metric{float64(st.tracedN), "count"}
	b.info["untraced_batches"] = metric{float64(st.plainN), "count"}
	b.info["traced_phase_rate"] = metric{float64(st.attempted-st.failed) / st.elapsed.Seconds(), "cells/s"}
	if overhead >= maxOverhead {
		out.errs = append(out.errs, fmt.Errorf("tracing overhead %.3f is not below %.2f", overhead, maxOverhead))
	}

	acct := accounting(b.w, m)
	if acct != nil {
		b.info["accounting_rel_err"] = metric{acct.RelErr, "fraction"}
		fmt.Fprintf(os.Stderr, "bench: layer accounting: client.self %.1f + net.self %.1f + server.request %.1f = %.1f us vs client.batch %.1f us (%.1f%%)\n",
			m["tabled.client.self_us"], m["net.self_us"], m["tabled.server.request_us"], acct.Sum, acct.Batch, 100*acct.RelErr)
		if !acct.Holds {
			fmt.Fprintf(os.Stderr, "bench: warning: layer accounting is off by more than %.0f%%\n", 100*accountingTolerance)
		}
	}

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(filepath.Join(traceDir, "trace.json"), append(recs, rrec)); err != nil {
		return nil, err
	}
	summary, err := json.MarshalIndent(struct {
		Workload   string            `json:"workload"`
		Seed       int64             `json:"seed"`
		Metrics    map[string]metric `json:"metrics"`
		Accounting *accountingCheck  `json:"accounting,omitempty"`
	}{b.w.name, b.seed, out.metrics, acct}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, "layers.json"), append(summary, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "bench: trace and per-layer summary in", traceDir)
	return out, nil
}

// div is a/b, or 0 where b is 0 (a layer the workload does not use).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumFamily sums every series of one metric name, whatever its labels.
func sumFamily(sets []promSet, name string) float64 {
	t := 0.0
	for _, s := range sets {
		for k, v := range s {
			if k == name || strings.HasPrefix(k, name+"{") {
				t += v
			}
		}
	}
	return t
}

// layerMetrics derives the per-layer metrics of the traced slices from
// the client spans and the daemons' counter deltas.
func (b *bench) layerMetrics(dp *deployment, tr *phaseStats, c *counters, recs []*recorder) map[string]float64 {
	pick := func(ds []*daemon) []promSet {
		var out []promSet
		for _, d := range ds {
			for i, e := range dp.all {
				if e == d {
					out = append(out, c.delta[i])
				}
			}
		}
		return out
	}
	cpuOf := func(keep func(*daemon) bool) time.Duration {
		var t time.Duration
		for i, d := range dp.all {
			if keep(d) {
				t += c.cpu[i]
			}
		}
		return t
	}
	srv := pick(dp.servers)
	front := srv
	if dp.router != nil {
		front = pick([]*daemon{dp.router})
	}
	batch := []string{"path", "/v1/batch"}
	reqSum := sumOver(srv, "http_request_duration_seconds_sum", batch...)
	reqN := sumOver(srv, "http_request_duration_seconds_count", batch...)
	execGet := sumOver(srv, "tabled_batch_duration_seconds_sum", "op", "get")
	execSet := sumOver(srv, "tabled_batch_duration_seconds_sum", "op", "set")
	frontUs := 1e6 * div(sumOver(front, "http_request_duration_seconds_sum", batch...),
		sumOver(front, "http_request_duration_seconds_count", batch...))
	syncSum := sumOver(srv, "tabled_wal_sync_duration_seconds_sum")
	syncN := sumOver(srv, "tabled_wal_sync_duration_seconds_count")

	spans := summarize(recs)
	meanUs := func(name string) float64 {
		if s := spans[name]; s != nil {
			return div(float64(s.total), float64(s.count)) / 1e3
		}
		return 0
	}
	clientSelfUs := 0.0
	if s := spans[spanClient]; s != nil {
		clientSelfUs = div(float64(s.self), float64(s.count)) / 1e3
	}
	cells := float64(tr.attempted - tr.failed)
	m := map[string]float64{
		"tabled.client.batch_us":                meanUs(spanClient),
		"tabled.client.self_us":                 clientSelfUs,
		"net.roundtrip_us":                      meanUs(spanNet),
		"net.self_us":                           meanUs(spanNoop),
		"tabled.server.request_us":              1e6 * div(reqSum, reqN),
		"tabled.server.self_us":                 1e6 * div(reqSum-execGet-execSet, reqN),
		"tabled.exec.get_ns_per_cell":           1e9 * div(execGet, float64(tr.getCells)),
		"tabled.exec.set_ns_per_cell":           1e9 * div(execSet, float64(tr.setAcked)),
		"walog.sync_us":                         1e6 * div(syncSum, syncN),
		"walog.syncs_per_append":                div(syncN, sumOver(srv, "tabled_wal_appends_total")),
		"walog.bytes_per_cell":                  div(sumOver(srv, "tabled_wal_appended_bytes_total"), float64(tr.setAcked)),
		"walog.sync_share":                      div(syncSum, execSet),
		"tabled.repl.ack_waits_per_write_batch": div(sumOver(srv, "tabled_repl_ack_waits_total"), float64(tr.setBatches)),
		"proc.server_cpu_us_per_cell":           div(float64(cpuOf(func(d *daemon) bool { return d.data() }).Microseconds()), cells),
		"proc.router_cpu_us_per_cell":           div(float64(cpuOf(func(d *daemon) bool { return !d.data() }).Microseconds()), cells),
		"proc.loadgen_cpu_us_per_cell":          div(float64(c.self.Microseconds()), cells),
		"tabled.repl.records_per_pull":          0,
		"tabled.repl.lag_records_end":           0,
		"cluster.request_us":                    0,
		"cluster.subbatch_us":                   0,
		"cluster.self_us":                       0,
		"cluster.subbatches_per_batch":          0,
		"cluster.ops_per_subbatch":              0,
	}
	if f := dp.follower; f != nil {
		fd := pick([]*daemon{f})
		m["tabled.repl.records_per_pull"] = div(sumOver(fd, "tabled_repl_applied_records_total"),
			sumOver(fd, "tabled_repl_pulls_total", "result", "ok"))
		for i, d := range dp.all {
			if d == f {
				m["tabled.repl.lag_records_end"] = c.last[i][seriesKey("tabled_repl_lag_records")]
			}
		}
	}
	if dp.router != nil {
		subSum := sumFamily(front, "cluster_node_batch_duration_seconds_sum")
		subN := sumFamily(front, "cluster_node_batch_duration_seconds_count")
		req := frontUs
		sub := 1e6 * div(subSum, subN)
		m["cluster.request_us"] = req
		m["cluster.subbatch_us"] = sub
		m["cluster.self_us"] = req - sub
		m["cluster.subbatches_per_batch"] = div(subN, sumOver(front, "http_request_duration_seconds_count", batch...))
		m["cluster.ops_per_subbatch"] = div(sumFamily(front, "cluster_node_ops_total"), subN)
	}
	return m
}

// accountingCheck compares the client-side layer split of one batch with
// its measured total.
type accountingCheck struct {
	Sum    float64 `json:"client_self_plus_net_self_plus_server_request_us"`
	Batch  float64 `json:"client_batch_us"`
	RelErr float64 `json:"rel_err"`
	Holds  bool    `json:"holds"`
}

// accounting checks, on single-node workloads, that client self time, net
// self time and the server's request time add up to the client's batch
// time. The terms come from three separate measurements: the batch spans,
// the no-op round trips and the server's own histogram, so the check fails
// when the server's view of a batch and the client's disagree by more
// than a bare round trip costs. It returns nil where a router adds a hop the sum
// omits.
func accounting(w *workload, m map[string]float64) *accountingCheck {
	if w.topo == topoRouter {
		return nil
	}
	sum := m["tabled.client.self_us"] + m["net.self_us"] + m["tabled.server.request_us"]
	batch := m["tabled.client.batch_us"]
	rel := math.Abs(sum-batch) / batch
	return &accountingCheck{Sum: sum, Batch: batch, RelErr: rel, Holds: rel <= accountingTolerance}
}

// tracedMapping wraps a storage mapping so the batch encode the sharded
// table runs is timed as a core span nested in the sharded one.
type tracedMapping struct {
	core.PF
	rec *recorder
}

// EncodeBatch implements core.BatchEncoder by delegating to
// core.EncodeBatch.
func (m tracedMapping) EncodeBatch(xs, ys, dst []int64, errf func(int, error)) {
	if m.rec.open < 0 {
		core.EncodeBatch(m.PF, xs, ys, dst, errf)
		return
	}
	i := m.rec.begin(spanCore, m.rec.spans[m.rec.open].batch)
	core.EncodeBatch(m.PF, xs, ys, dst, errf)
	m.rec.end(i)
}

// replay runs the first replayBatches capacity batches, single-threaded,
// through the public functions of the layers below the network: the
// codec, a sharded table preloaded like the daemons' (with core inside),
// and the cluster partitioner and merge.
func (b *bench) replay(epoch time.Time) (map[string]float64, *recorder, error) {
	w := b.w
	rec := newRecorder(epoch, clients)
	sh, err := tabled.NewSharded[string](tracedMapping{PF: core.SquareShell{}, rec: rec}, 16,
		func() extarray.Store[string] { return extarray.NewPagedStore[string]() }, w.rows, w.cols, nil)
	if err != nil {
		return nil, nil, err
	}
	spec, err := cluster.EvenSpec("square-shell",
		[]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}, w.cells(), math.MaxInt64)
	if err != nil {
		return nil, nil, err
	}
	rm, err := cluster.NewRangeMap(spec)
	if err != nil {
		return nil, nil, err
	}
	pt := cluster.NewPartitioner(core.SquareShell{}, rm)

	buf := b.g.newBuf()
	cells := make([]tabled.Cell[string], batchCells)
	keys := make([]tabled.Pos, batchCells)
	errs := make([]error, batchCells)
	gets := make([]tabled.GetResult[string], batchCells)
	results := make([]tabled.OpResult, batchCells)
	merged := make([]tabled.OpResult, batchCells)
	fake := make([]tabled.OpResult, 3*batchCells)
	for i := range fake {
		fake[i].OK = true
	}
	set := func(ops []tabled.Op) error {
		for j, op := range ops {
			cells[j] = tabled.Cell[string]{X: op.X, Y: op.Y, V: op.V}
		}
		sh.SetBatchInto(cells[:len(ops)], errs[:len(ops)])
		for _, err := range errs[:len(ops)] {
			if err != nil {
				return fmt.Errorf("replay set: %w", err)
			}
		}
		return nil
	}
	for k := range b.g.preloadBatches() {
		if err := set(b.g.batch(buf, phasePreload, k)); err != nil {
			return nil, nil, err
		}
	}

	var (
		frame, out       []byte
		decOps           []tabled.Op
		decRes           []tabled.OpResult
		getCells, setCns int64
	)
	for k := range int64(replayBatches) {
		ops := b.g.batch(buf, phaseCapacity, k)
		n := len(ops)
		i := rec.begin(spanCodecReq, k)
		frame, err = tabled.AppendBatchRequest(frame[:0], ops)
		if err == nil {
			decOps, err = tabled.DecodeBatchRequest(frame, decOps, 0)
		}
		rec.end(i)
		if err != nil {
			return nil, nil, fmt.Errorf("replay request codec: %w", err)
		}
		if ops[0].Op == "set" {
			i = rec.begin(spanShardedSet, k)
			err = set(ops)
			rec.end(i)
			if err != nil {
				return nil, nil, err
			}
			for j := range ops {
				results[j] = tabled.OpResult{OK: true}
			}
			setCns += int64(n)
		} else {
			for j, op := range ops {
				keys[j] = tabled.Pos{X: op.X, Y: op.Y}
			}
			i = rec.begin(spanShardedGet, k)
			sh.GetBatchInto(keys[:n], gets[:n])
			rec.end(i)
			for j, g := range gets[:n] {
				if g.Err != nil {
					return nil, nil, fmt.Errorf("replay get: %w", g.Err)
				}
				results[j] = tabled.OpResult{OK: true, Found: g.OK, V: g.V}
			}
			getCells += int64(n)
		}
		i = rec.begin(spanCodecResp, k)
		out, err = tabled.AppendBatchResponse(out[:0], results[:n])
		if err == nil {
			decRes, err = tabled.DecodeBatchResponse(out, decRes, 0)
		}
		rec.end(i)
		if err != nil {
			return nil, nil, fmt.Errorf("replay response codec: %w", err)
		}
		i = rec.begin(spanPartition, k)
		p := pt.Partition(ops, 0)
		p.MergeLocal(merged[:n])
		for node := range rm.NumNodes() {
			sub, _ := p.Sub(node)
			p.MergeInto(merged[:n], node, fake[:len(sub)])
		}
		p.Release()
		rec.end(i)
	}

	st := summarize([]*recorder{rec})
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	ops := float64(replayBatches * batchCells)
	return map[string]float64{
		"core.encode_ns_per_cell":         div(float64(get(spanCore).total), float64(getCells+setCns)),
		"tabled.sharded.get_ns_per_cell":  div(float64(get(spanShardedGet).self), float64(getCells)),
		"tabled.sharded.set_ns_per_cell":  div(float64(get(spanShardedSet).self), float64(setCns)),
		"extarray.footprint_per_cell":     div(float64(sh.Stats().Footprint), float64(sh.Len())),
		"tabled.codec.request_ns_per_op":  div(float64(get(spanCodecReq).total), ops),
		"tabled.codec.response_ns_per_op": div(float64(get(spanCodecResp).total), ops),
		"cluster.partition_ns_per_op":     div(float64(get(spanPartition).total), ops),
	}, rec, nil
}
