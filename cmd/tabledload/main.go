// Command tabledload is the concurrent load generator for the tabled
// service and the E23 experiment driver: it measures batched set/get
// throughput and latency against either a running tabledserver (HTTP mode)
// or an in-process backend (-direct), where the sharded store and the
// extarray.Sync global-mutex baseline can be compared head to head under
// client contention.
//
// Usage:
//
//	tabledload -addr http://localhost:8080 -clients 8 -batch 128 -ops 100000
//	tabledload -addr http://localhost:8080 -wire binary ...     # E26: binary codec
//	tabledload -direct -backend sharded -shards 16 -clients 8 -batch 128
//	tabledload -direct -backend sync    -clients 8 -batch 128   # E23 baseline
//	tabledload -direct -backend hash    -clients 8 -batch 128   # §3-aside store
//
// In HTTP mode, -wire selects the /v1/batch encoding: "json" (the default)
// or "binary", the length-prefixed codec specified in docs/WIRE.md. The
// server accepts both on the same endpoint via content negotiation, so the
// two wires can be compared against one running server (experiment E26).
//
// Each client issues batches of -batch cells at uniformly random positions
// of the rows×cols table: a set-batch with probability -setfrac, else a
// get-batch. With -resize-every K, client 0 additionally grows the table by
// one row every K batches — reshapes under live traffic, the §3 scenario.
// Per-batch latencies are aggregated into p50/p95/p99; the summary goes to
// stderr and, with -json, one machine-readable JSON line to stdout.
//
// Pointed at a tabledrouter (the cluster front door is wire-compatible),
// -nodes adds a per-member summary: the router's /v1/cluster counters are
// snapshotted before and after the run, and the deltas — ops routed,
// sub-batch errors, sub-batch latency percentiles per member — cover
// exactly this run. With -json they ride along as the "nodes" field.
//
// Chaos-verification mode (exercising the tabled WAL):
//
//	tabledload -seq -acklog acked.log -retries 5 ...   # unique cells, log acks
//	<SIGKILL the server mid-run, restart it>
//	tabledload -check acked.log                        # every ack must read back
//
// With -seq every batch writes FRESH cells — positions are assigned from a
// global counter, values are derived from the position — and each
// acknowledged batch is appended to -acklog only after the server's 200.
// -check reads such a log back and verifies every acknowledged cell is
// present with its exact value: the WAL durability contract, falsified if
// any line is missing. -retries wraps the client in jittered-backoff
// retries (with idempotency keys, so a retried batch is never applied
// twice).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pairfn/internal/cluster"
	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/retry"
	"pairfn/internal/tabled"
)

// driver abstracts the two modes behind batch calls.
type driver interface {
	setBatch(cells []tabled.Cell[string]) error
	getBatch(keys []tabled.Pos) error
	resize(rows, cols int64) error
	describe() tabled.Info
}

type report struct {
	Mode string `json:"mode"`
	// Wire has no omitempty: a -json consumer diffing E26 runs needs the
	// field present even when it is JSON-mode's default.
	Wire     string        `json:"wire"`
	Backend  string        `json:"backend"`
	Mapping  string        `json:"mapping,omitempty"`
	Shards   int           `json:"shards"`
	Clients  int           `json:"clients"`
	Batch    int           `json:"batch"`
	SetFrac  float64       `json:"set_fraction"`
	Ops      int64         `json:"ops"`
	Resizes  int64         `json:"resizes"`
	Errors   int64         `json:"errors"`
	WallMs   float64       `json:"wall_ms"`
	OpsPerS  float64       `json:"ops_per_sec"`
	P50us    float64       `json:"batch_p50_us"`
	P95us    float64       `json:"batch_p95_us"`
	P99us    float64       `json:"batch_p99_us"`
	GoMaxPro int           `json:"gomaxprocs"`
	Nodes    []nodeSummary `json:"nodes,omitempty"`
}

// nodeSummary is one cluster member's share of a -nodes run: deltas of the
// router's /v1/cluster counters between the pre- and post-run snapshots,
// so the numbers cover exactly this load run no matter what else hit the
// router before it.
type nodeSummary struct {
	Name   string  `json:"name"`
	State  string  `json:"state"`
	Ops    int64   `json:"ops"`
	Errors int64   `json:"errors"`
	P50us  float64 `json:"sub_batch_p50_us"`
	P95us  float64 `json:"sub_batch_p95_us"`
	P99us  float64 `json:"sub_batch_p99_us"`
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "http://127.0.0.1:8080", "tabledserver base URL (HTTP mode)")
	direct := flag.Bool("direct", false, "drive an in-process backend instead of a server (E23 mode)")
	backend := flag.String("backend", "sharded", "in-process backend: sharded | sync | hash (with -direct)")
	shards := flag.Int("shards", 16, "shard count for -direct -backend sharded")
	mapping := flag.String("mapping", "square-shell", "storage mapping (any core.ByName form; -direct)")
	rows := flag.Int64("rows", 1024, "table rows (position space; -direct creates the table, HTTP mode resizes to at least this)")
	cols := flag.Int64("cols", 1024, "table cols")
	clients := flag.Int("clients", 8, "concurrent clients")
	batch := flag.Int("batch", 128, "cells per batch")
	ops := flag.Int64("ops", 200000, "total cell operations across all clients")
	setFrac := flag.Float64("setfrac", 0.5, "fraction of batches that are sets")
	resizeEvery := flag.Int("resize-every", 0, "client 0 grows the table by one row every N of its batches (0 = never)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	jsonOut := flag.Bool("json", false, "emit one JSON summary line to stdout")
	retries := flag.Int("retries", 0, "attempts per request with jittered backoff (HTTP mode; 0 = no retries)")
	wire := flag.String("wire", tabled.WireJSON, "batch encoding in HTTP mode: json | binary (docs/WIRE.md)")
	nodesOut := flag.Bool("nodes", false, "per-node summary from the router's /v1/cluster, delta over this run (HTTP mode against tabledrouter)")
	seq := flag.Bool("seq", false, "sequential mode: every batch writes fresh cells with position-derived values (chaos verification)")
	ackPath := flag.String("acklog", "", "append each acknowledged cell as 'x y v' to this file (requires -seq)")
	checkPath := flag.String("check", "", "verify every cell in this ack log reads back with its exact value, then exit")
	flag.Parse()

	var pol *retry.Policy
	if *retries > 0 {
		pol = &retry.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, MaxAttempts: *retries}
	}
	if *wire != tabled.WireJSON && *wire != tabled.WireBinary {
		fmt.Fprintf(os.Stderr, "tabledload: -wire %q: must be %q or %q\n", *wire, tabled.WireJSON, tabled.WireBinary)
		return 2
	}
	if *checkPath != "" {
		return runCheck(*addr, *checkPath, *batch, pol, *wire)
	}
	if *ackPath != "" && !*seq {
		fmt.Fprintln(os.Stderr, "tabledload: -acklog requires -seq (random mode overwrites cells)")
		return 2
	}
	if *seq && *ops > *rows**cols {
		fmt.Fprintf(os.Stderr, "tabledload: -seq needs ops ≤ rows*cols (%d > %d): every cell is written at most once\n",
			*ops, *rows**cols)
		return 2
	}

	var (
		d   driver
		err error
	)
	if *direct {
		d, err = newDirectDriver(*backend, *mapping, *shards, *rows, *cols)
	} else {
		d, err = newHTTPDriver(*addr, *rows, *cols, pol, *wire)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabledload:", err)
		return 1
	}

	var before *cluster.StatusReply
	if *nodesOut {
		if *direct {
			fmt.Fprintln(os.Stderr, "tabledload: -nodes needs HTTP mode against a tabledrouter")
			return 2
		}
		before, err = fetchCluster(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tabledload: -nodes: %v (is %s a tabledrouter?)\n", err, *addr)
			return 1
		}
	}

	var acks *ackLogger
	if *ackPath != "" {
		acks, err = newAckLogger(*ackPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tabledload:", err)
			return 1
		}
		defer acks.close()
	}

	totalBatches := *ops / int64(*batch)
	if totalBatches < 1 {
		totalBatches = 1
	}
	var (
		nextBatch atomic.Int64
		errCount  atomic.Int64
		resizes   atomic.Int64
		curRows   atomic.Int64
	)
	curRows.Store(*rows)
	latencies := make([][]float64, *clients)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			cells := make([]tabled.Cell[string], *batch)
			keys := make([]tabled.Pos, *batch)
			myBatches := 0
			for {
				bn := nextBatch.Add(1)
				if bn > totalBatches {
					break
				}
				myBatches++
				if w == 0 && *resizeEvery > 0 && myBatches%*resizeEvery == 0 {
					nr := curRows.Add(1)
					if err := d.resize(nr, *cols); err != nil {
						errCount.Add(1)
					} else {
						resizes.Add(1)
					}
				}
				t0 := time.Now()
				if *seq {
					// Fresh cells from the global batch counter: each position
					// is written exactly once, with a value derived from it,
					// so an ack log can be verified after a crash.
					base := (bn - 1) * int64(*batch)
					for i := range cells {
						idx := base + int64(i)
						x, y := idx / *cols + 1, idx%*cols+1
						cells[i] = tabled.Cell[string]{X: x, Y: y, V: seqValue(x, y)}
					}
					if err := d.setBatch(cells); err != nil {
						errCount.Add(1)
					} else if acks != nil {
						if err := acks.log(cells); err != nil {
							fmt.Fprintln(os.Stderr, "tabledload: acklog:", err)
							errCount.Add(1)
						}
					}
				} else if rng.Float64() < *setFrac {
					for i := range cells {
						cells[i] = tabled.Cell[string]{
							X: rng.Int63n(*rows) + 1, Y: rng.Int63n(*cols) + 1,
							V: fmt.Sprintf("w%d-%d", w, i),
						}
					}
					if err := d.setBatch(cells); err != nil {
						errCount.Add(1)
					}
				} else {
					for i := range keys {
						keys[i] = tabled.Pos{X: rng.Int63n(*rows) + 1, Y: rng.Int63n(*cols) + 1}
					}
					if err := d.getBatch(keys); err != nil {
						errCount.Add(1)
					}
				}
				latencies[w] = append(latencies[w], float64(time.Since(t0).Microseconds()))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []float64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	info := d.describe()
	mode := "http"
	if *direct {
		mode = "direct"
	}
	doneOps := totalBatches * int64(*batch)
	repWire := ""
	if !*direct {
		repWire = *wire
	}
	rep := report{
		Mode: mode, Wire: repWire, Backend: info.Backend, Mapping: info.Mapping, Shards: info.Shards,
		Clients: *clients, Batch: *batch, SetFrac: *setFrac,
		Ops: doneOps, Resizes: resizes.Load(), Errors: errCount.Load(),
		WallMs:  float64(wall.Microseconds()) / 1000,
		OpsPerS: float64(doneOps) / wall.Seconds(),
		P50us:   percentile(all, 0.50), P95us: percentile(all, 0.95), P99us: percentile(all, 0.99),
		GoMaxPro: runtime.GOMAXPROCS(0),
	}
	if before != nil {
		after, err := fetchCluster(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tabledload: -nodes:", err)
			return 1
		}
		rep.Nodes = nodeDeltas(before, after)
	}
	fmt.Fprintf(os.Stderr,
		"tabledload: %s/%s shards=%d clients=%d batch=%d setfrac=%.2f\n"+
			"tabledload: %d ops in %.1f ms → %.0f ops/s (batch p50 %.0f µs, p95 %.0f µs, p99 %.0f µs; %d resizes, %d errors)\n",
		rep.Mode, rep.Backend, rep.Shards, rep.Clients, rep.Batch, rep.SetFrac,
		rep.Ops, rep.WallMs, rep.OpsPerS, rep.P50us, rep.P95us, rep.P99us, rep.Resizes, rep.Errors)
	for _, n := range rep.Nodes {
		fmt.Fprintf(os.Stderr,
			"tabledload: node %s %s: %d ops, %d errors (sub-batch p50 %.0f µs, p95 %.0f µs, p99 %.0f µs)\n",
			n.Name, n.State, n.Ops, n.Errors, n.P50us, n.P95us, n.P99us)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "tabledload:", err)
			return 1
		}
	}
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// fetchCluster snapshots a tabledrouter's /v1/cluster.
func fetchCluster(addr string) (*cluster.StatusReply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	var reply cluster.StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// nodeDeltas diffs two /v1/cluster snapshots into per-node run summaries.
// Counters are cumulative, so the difference isolates this run; the
// latency percentiles come from the delta of the cumulative histogram
// counts (cluster.HistogramPercentile's shape), converted to µs.
func nodeDeltas(before, after *cluster.StatusReply) []nodeSummary {
	prev := make(map[string]cluster.NodeStatus, len(before.Nodes))
	for _, n := range before.Nodes {
		prev[n.Name] = n
	}
	out := make([]nodeSummary, 0, len(after.Nodes))
	for _, n := range after.Nodes {
		s := nodeSummary{Name: n.Name, State: n.State, Ops: n.Ops, Errors: n.Errors}
		counts := append([]int64(nil), n.LatencyCounts...)
		if p, ok := prev[n.Name]; ok {
			s.Ops -= p.Ops
			s.Errors -= p.Errors
			if len(p.LatencyCounts) == len(counts) {
				for i := range counts {
					counts[i] -= p.LatencyCounts[i]
				}
			}
		}
		s.P50us = cluster.HistogramPercentile(n.LatencyBounds, counts, 0.50) * 1e6
		s.P95us = cluster.HistogramPercentile(n.LatencyBounds, counts, 0.95) * 1e6
		s.P99us = cluster.HistogramPercentile(n.LatencyBounds, counts, 0.99) * 1e6
		out = append(out, s)
	}
	return out
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// directDriver runs batches straight against a Backend.
type directDriver struct {
	b tabled.Backend[string]
}

func newDirectDriver(backend, mapping string, shards int, rows, cols int64) (*directDriver, error) {
	f, err := core.ByName(mapping)
	if err != nil {
		return nil, err
	}
	switch backend {
	case "sharded":
		s, err := tabled.NewSharded[string](f, shards,
			func() extarray.Store[string] { return extarray.NewSlabStore() }, rows, cols, nil)
		if err != nil {
			return nil, err
		}
		return &directDriver{b: s}, nil
	case "sync":
		arr, err := extarray.New[string](f, extarray.NewPagedStore[string](), rows, cols)
		if err != nil {
			return nil, err
		}
		return &directDriver{b: tabled.WrapTable[string](extarray.NewSync[string](arr),
			tabled.Info{Backend: "sync", Mapping: f.Name(), Shards: 1})}, nil
	case "hash":
		return &directDriver{b: tabled.WrapTable[string](
			extarray.NewSync[string](extarray.NewHashBacked[string](rows, cols)),
			tabled.Info{Backend: "hash", Shards: 1})}, nil
	}
	return nil, fmt.Errorf("unknown backend %q (sharded | sync | hash)", backend)
}

func (d *directDriver) setBatch(cells []tabled.Cell[string]) error {
	errs := make([]error, len(cells))
	d.b.SetBatchInto(cells, errs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *directDriver) getBatch(keys []tabled.Pos) error {
	res := make([]tabled.GetResult[string], len(keys))
	d.b.GetBatchInto(keys, res)
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func (d *directDriver) resize(rows, cols int64) error { return d.b.Resize(rows, cols) }
func (d *directDriver) describe() tabled.Info         { return d.b.Describe() }

// httpDriver runs batches through the typed client against a live server.
type httpDriver struct {
	c    *tabled.Client
	info tabled.Info
}

func newHTTPDriver(addr string, rows, cols int64, pol *retry.Policy, wire string) (*httpDriver, error) {
	c := &tabled.Client{Base: addr, Retry: pol, Wire: wire}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("connecting to %s: %w", addr, err)
	}
	// Make sure the position space fits the server's table.
	if reply.Rows < rows || reply.Cols < cols {
		nr, nc := max64(reply.Rows, rows), max64(reply.Cols, cols)
		if err := c.Resize(ctx, nr, nc); err != nil {
			return nil, err
		}
	}
	return &httpDriver{c: c, info: reply.Info}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (d *httpDriver) setBatch(cells []tabled.Cell[string]) error {
	return d.c.Set(context.Background(), cells...)
}

func (d *httpDriver) getBatch(keys []tabled.Pos) error {
	res, err := d.c.GetBatch(context.Background(), keys)
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Err != "" {
			return fmt.Errorf("%w: %s", tabled.ErrRemote, r.Err)
		}
	}
	return nil
}

func (d *httpDriver) resize(rows, cols int64) error {
	return d.c.Resize(context.Background(), rows, cols)
}

func (d *httpDriver) describe() tabled.Info { return d.info }

// seqValue is the deterministic value for a -seq cell: derived entirely
// from the position, so -check needs no state beyond the ack log.
func seqValue(x, y int64) string { return fmt.Sprintf("s-%d-%d", x, y) }

// ackLogger appends acknowledged cells to a file, one "x y v" line each,
// flushed per batch — the ground truth the durability check replays.
type ackLogger struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func newAckLogger(path string) (*ackLogger, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &ackLogger{f: f, w: bufio.NewWriter(f)}, nil
}

func (a *ackLogger) log(cells []tabled.Cell[string]) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range cells {
		if _, err := fmt.Fprintf(a.w, "%d %d %s\n", c.X, c.Y, c.V); err != nil {
			return err
		}
	}
	return a.w.Flush()
}

func (a *ackLogger) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	_ = a.w.Flush()
	_ = a.f.Close()
}

// runCheck replays an ack log against the server: every acknowledged cell
// must read back with its exact value. Any miss is a broken durability
// contract and a nonzero exit.
func runCheck(addr, path string, batch int, pol *retry.Policy, wire string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabledload:", err)
		return 1
	}
	type want struct {
		pos tabled.Pos
		v   string
	}
	var wants []want
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		var x, y int64
		var v string
		if _, err := fmt.Sscanf(line, "%d %d %s", &x, &y, &v); err != nil {
			// The writer may itself have been killed mid-flush: a torn FINAL
			// line is an unacknowledged batch, not a lost one. Anything
			// malformed earlier is a corrupt log and fatal.
			if ln == len(lines)-1 || (ln == len(lines)-2 && lines[len(lines)-1] == "") {
				fmt.Fprintf(os.Stderr, "tabledload: ignoring torn final ack line %d\n", ln+1)
				continue
			}
			fmt.Fprintf(os.Stderr, "tabledload: %s:%d: %v\n", path, ln+1, err)
			return 1
		}
		wants = append(wants, want{pos: tabled.Pos{X: x, Y: y}, v: v})
	}
	// A kill mid-flush can also truncate the final VALUE into something that
	// still parses ("s-12-3" cut from "s-12-34"). -acklog implies -seq, so
	// the expected value is derivable: drop a final line that disagrees.
	if n := len(wants); n > 0 {
		last := wants[n-1]
		if last.v != seqValue(last.pos.X, last.pos.Y) {
			fmt.Fprintf(os.Stderr, "tabledload: ignoring torn final ack line (value %q)\n", last.v)
			wants = wants[:n-1]
		}
	}
	c := &tabled.Client{Base: addr, Retry: pol, Wire: wire}
	ctx := context.Background()
	lost := 0
	for i := 0; i < len(wants); i += batch {
		j := i + batch
		if j > len(wants) {
			j = len(wants)
		}
		keys := make([]tabled.Pos, j-i)
		for k := i; k < j; k++ {
			keys[k-i] = wants[k].pos
		}
		res, err := c.GetBatch(ctx, keys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tabledload: check:", err)
			return 1
		}
		for k, r := range res {
			w := wants[i+k]
			switch {
			case r.Err != "":
				fmt.Fprintf(os.Stderr, "tabledload: LOST (%d,%d): %s\n", w.pos.X, w.pos.Y, r.Err)
				lost++
			case !r.Found:
				fmt.Fprintf(os.Stderr, "tabledload: LOST (%d,%d): acked but absent\n", w.pos.X, w.pos.Y)
				lost++
			case r.V != w.v:
				fmt.Fprintf(os.Stderr, "tabledload: CORRUPT (%d,%d): %q, want %q\n", w.pos.X, w.pos.Y, r.V, w.v)
				lost++
			}
		}
	}
	if lost > 0 {
		fmt.Fprintf(os.Stderr, "tabledload: check FAILED: %d of %d acknowledged cells lost or corrupt\n", lost, len(wants))
		return 1
	}
	fmt.Fprintf(os.Stderr, "tabledload: check ok: all %d acknowledged cells durable\n", len(wants))
	return 0
}
