package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/tabled"
)

// nodeUnavailablePrefix marks per-op errors caused by a member being
// unreachable or refusing the sub-batch — the transient class a client
// should retry, as opposed to ErrOutOfRange (a spec problem) or the
// member's own per-op errors (bounds, overflow), which retrying cannot
// fix. IsUnavailable keys off it.
const nodeUnavailablePrefix = "cluster: node "

// IsUnavailable reports whether a per-op error string is the router's
// node-unavailability class.
func IsUnavailable(errstr string) bool {
	return strings.HasPrefix(errstr, nodeUnavailablePrefix)
}

// AllUnavailable reports whether every op failed and at least one failure
// is node unavailability — the condition under which the front door
// answers a typed 503 instead of 200-with-errors, so retrying clients
// treat the whole batch as retryable.
func AllUnavailable(results []tabled.OpResult) bool {
	if len(results) == 0 {
		return false
	}
	any := false
	for i := range results {
		if results[i].Err == "" {
			return false
		}
		if IsUnavailable(results[i].Err) {
			any = true
		}
	}
	return any
}

func nodeDownErr(name string, cause error) string {
	return fmt.Sprintf("%sunavailable: %s: %v", nodeUnavailablePrefix, name, cause)
}

func nodeReadOnlyErr(name string) string {
	return fmt.Sprintf("%sread-only: %s: writes are disabled while the member is degraded", nodeUnavailablePrefix, name)
}

func nodeAwaitingPromotionErr(name string) string {
	return fmt.Sprintf("%sread-only: %s: primary unavailable and replica not promoted, writes are disabled", nodeUnavailablePrefix, name)
}

// nodeFencedMark prefixes per-op errors caused by the owning primary
// being fenced: a promotion happened that it predates, so routing writes
// to it would fork history. A sub-class of IsUnavailable (the marker
// extends nodeUnavailablePrefix), additionally detected by IsFenced so
// the front door can answer 409 instead of 503 — "retry later" is the
// wrong hint when the range needs an operator (or the stale node's
// auto-reseed) to converge.
const nodeFencedMark = nodeUnavailablePrefix + "fenced: "

// IsFenced reports whether a per-op error string is the router's
// fenced-primary class.
func IsFenced(errstr string) bool {
	return strings.HasPrefix(errstr, nodeFencedMark)
}

// AnyFenced reports whether any per-op error is the fenced-primary class.
func AnyFenced(results []tabled.OpResult) bool {
	for i := range results {
		if IsFenced(results[i].Err) {
			return true
		}
	}
	return false
}

func nodeFencedErr(name string, epoch, maxEpoch uint64) string {
	return fmt.Sprintf("%s%s: primary epoch %d is behind observed epoch %d; refusing to route to a stale primary",
		nodeFencedMark, name, epoch, maxEpoch)
}

// errDown is the fail-fast cause recorded when the health checker already
// marked the member down and the router never attempted the call.
var errDown = errors.New("marked down by health check")

// errUnrouted is the defensive fill for ops no merge reached; it cannot
// occur while every sub-batch (including failed ones) merges a result.
var errUnrouted = errors.New("cluster: internal: op was not routed")

// DefaultReplicaReadMaxLag is the replica read-offload lag ceiling used
// when the operator enables -replica-reads without tuning the threshold:
// generous enough that a replica applying a steady stream stays eligible,
// small enough that a stalled one is quickly bypassed.
const DefaultReplicaReadMaxLag = 1024

// Options configures New.
type Options struct {
	// Retry, when non-nil, retries failed sub-batches with jittered
	// backoff. Safe because every sub-batch carries a per-node
	// idempotency key derived from the client's: a node that already
	// executed a lost-ack sub-batch replays its recorded response.
	Retry *retry.Policy
	// NodeTimeout bounds each sub-batch attempt; an attempt that hits it
	// closes its connection. 0 leaves attempts bounded only by the
	// request context.
	NodeTimeout time.Duration
	// Registry receives cluster_* metrics; nil disables them.
	Registry *obs.Registry
	// Logger receives router log lines (may be nil).
	Logger *slog.Logger
	// Health configures the active checker (Metrics/Logger fields are
	// filled from the options above when zero). Its HTTPClient also
	// fetches member /v1/stats; sub-batches travel on the router's own
	// upgraded connections (docs/WIRE.md §7).
	Health CheckerOptions
	// ReplicaReads offloads read-only sub-batches to a node's live,
	// unpromoted replica even while the primary is healthy — read scaling
	// for replicated ranges. Writes always go to the primary.
	ReplicaReads bool
	// ReplicaReadMaxLag caps the replica record lag (last observed by the
	// checker) at which reads are still offloaded; above it the primary
	// serves them. Only meaningful with ReplicaReads; 0 means only a
	// fully-caught-up replica takes reads.
	ReplicaReadMaxLag uint64
}

// A Router is the stateless routing core of tabledcluster: it splits the
// PF address space across the spec's members, fans every batch out to the
// owning nodes concurrently, and merges the replies back into request
// order. All cluster state it keeps is soft (health observations,
// metrics); idempotency and durability live on the members, reached by
// propagating the client's Idempotency-Key per node — so routers can be
// replicated and restarted freely.
type Router struct {
	spec *Spec
	pf   core.PF
	rm   *RangeMap
	part *Partitioner
	// pools[i] carries Nodes[i]'s sub-batches over upgraded connections.
	pools []*tabled.ConnPool
	// rpools[i] reaches Nodes[i].Replica (nil without one): the read
	// fallback while the primary is degraded or down, and the write
	// target once the checker observes the replica promoted.
	rpools []*tabled.ConnPool
	// stats[i] fetches Nodes[i]'s /v1/stats.
	stats []*tabled.Client
	// written[i] is the highest WAL position Nodes[i]'s primary reported
	// for a write this router acknowledged: the minimum position of a read
	// offloaded to its replica, so the router reads its own writes
	// (DESIGN §5e). A reload hands it on while the primary stays.
	written []*atomic.Uint64
	health  *Checker
	m       *Metrics
	logger  *slog.Logger
	// keyPrefix and keySeq make the idempotency key of a batch that came
	// without one: a random prefix drawn once per router, so keys from
	// different routers and restarts never meet, and a counter.
	keyPrefix string
	keySeq    atomic.Uint64

	replicaReads      bool
	replicaReadMaxLag uint64
}

// New builds a router over a validated spec. The spec's mapping name is
// resolved through core.ByName; every member must be serving the same
// mapping or routed reads will miss (the smoke test's /v1/stats handshake
// catches the misconfiguration).
func New(spec *Spec, opt Options) (*Router, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f, err := core.ByName(spec.Mapping)
	if err != nil {
		return nil, fmt.Errorf("cluster: spec mapping: %w", err)
	}
	rm, err := NewRangeMap(spec)
	if err != nil {
		return nil, err
	}
	m := NewMetrics(opt.Registry, spec)
	hopt := opt.Health
	if hopt.Logger == nil {
		hopt.Logger = opt.Logger
	}
	if hopt.Metrics == nil {
		hopt.Metrics = m
	}
	r := &Router{
		spec:              spec,
		pf:                f,
		rm:                rm,
		part:              NewPartitioner(f, rm),
		health:            NewChecker(spec, hopt),
		m:                 m,
		logger:            opt.Logger,
		keyPrefix:         tabled.NewIdemKey() + "-",
		replicaReads:      opt.ReplicaReads,
		replicaReadMaxLag: opt.ReplicaReadMaxLag,
	}
	for _, n := range spec.Nodes {
		// Pools dial nothing until used: an error leaves nothing to close.
		p, err := tabled.NewConnPool(n.Base, opt.Retry, opt.NodeTimeout)
		var rp *tabled.ConnPool
		if err == nil && n.Replica != "" {
			rp, err = tabled.NewConnPool(n.Replica, opt.Retry, opt.NodeTimeout)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", n.Name, err)
		}
		r.pools = append(r.pools, p)
		r.rpools = append(r.rpools, rp)
		r.stats = append(r.stats, &tabled.Client{Base: n.Base, HTTP: opt.Health.HTTPClient})
		r.written = append(r.written, new(atomic.Uint64))
	}
	return r, nil
}

// inherit shares old's cells with r before r's checker first runs: the
// written position of every primary both specs name, so writes old
// acknowledged — including ones still in flight — keep gating replica
// reads, and the max-epoch latch of every pair both specs keep (same
// primary and same replica), so a reload opens no unfenced window. A pair
// whose spec entry was amended starts a fresh latch: that is how an
// operator clears a fence.
func (r *Router) inherit(old *Router) {
	for i, n := range r.spec.Nodes {
		for j, o := range old.spec.Nodes {
			if o.Base != n.Base {
				continue
			}
			r.written[i] = old.written[j]
			if o.Replica == n.Replica {
				r.health.pairs[i].max = old.health.pairs[j].max
			}
		}
	}
}

// Close closes the router's idle member connections; sub-batches still
// in flight finish and close theirs. A closed router keeps routing, one
// connection per sub-batch — the Reloader closes the router it replaces
// while requests that resolved it may still be running.
func (r *Router) Close() {
	for n := range r.pools {
		r.pools[n].Close()
		if r.rpools[n] != nil {
			r.rpools[n].Close()
		}
	}
}

// Router returns the router itself — the degenerate RouterSource, so a
// fixed-spec composition hands a *Router straight to NewHandler while a
// live-reload one hands a *Reloader.
func (r *Router) Router() *Router { return r }

// Health returns the router's active checker (run it as a lifecycle
// background task).
func (r *Router) Health() *Checker { return r.health }

// Spec returns the cluster spec the router serves.
func (r *Router) Spec() *Spec { return r.spec }

// appendNodeKey appends the per-node idempotency key derived from the
// client's, key/node/nops, where node is the member's name followed by
// suffix ("/replica" for a read offloaded to its replica): stable across
// both the client's retries of the whole batch and the router's retries
// of the sub-batch, so a node never applies a replayed sub-batch twice.
// The op count is folded in so a degraded-member read-only filter (which
// shrinks the sub-batch) never replays a response recorded for a
// different op set.
func appendNodeKey[K string | []byte](dst []byte, key K, node, suffix string, nops int) []byte {
	dst = append(dst, key...)
	dst = append(dst, '/')
	dst = append(dst, node...)
	dst = append(dst, suffix...)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(nops), 10)
}

// maxClientKey is the longest client Idempotency-Key the router passes on
// verbatim. HTTP bounds a header only by the whole header block, but a
// member caps exchange keys (docs/WIRE.md §7), so Execute replaces a longer
// key with its SHA-256: as unique, and short enough for any node suffix.
const maxClientKey = 512

// digestKey is the stand-in for a client key over maxClientKey bytes.
func digestKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// A Scratch is the memory one routed batch works in: the merged results,
// and for each member its reply slot, its sub-batch's results, the
// envelope and key sent to it, and the reply body it answered into.
// Execute's results alias the Scratch, their values and error strings the
// member reply bodies, so the caller keeps it until done with them — the
// front door until the reply is written — and may then reuse it. The zero
// value is ready for use.
type Scratch struct {
	// Deadline, when not zero, bounds the batch's member exchanges: each
	// attempt's connection deadline is the earlier of it and the node
	// timeout, and none starts or retries once it has passed. The front
	// door sets it to the batch's arrival plus its batch timeout.
	Deadline time.Time

	out   []tabled.OpResult
	nodes []*nodeScratch
	wg    sync.WaitGroup
	// The batch being fanned out, read by the nodes' run functions; set
	// only while Execute runs. key is the batch's idempotency key.
	r   *Router
	ctx context.Context
	key []byte
}

// A nodeScratch is one member's share of a Scratch.
type nodeScratch struct {
	sub     []tabled.Op       // the member's sub-batch
	reply   []tabled.OpResult // callNode's answer; nil without a sub-batch
	res     []tabled.OpResult // reply's memory
	send    []tabled.Op       // the reads kept by a read-only filter
	sendPos []int             // res position of each op in send
	key     []byte
	xb      tabled.ExchangeBuf
	// run calls the member on a goroutine of its own; made once, so
	// starting that goroutine allocates no closure.
	run func()
}

// reset sizes the scratch for a batch of nops ops over nnodes members and
// returns its result slice.
func (sc *Scratch) reset(nops, nnodes int) []tabled.OpResult {
	if cap(sc.out) < nops {
		sc.out = make([]tabled.OpResult, nops)
	}
	for n := len(sc.nodes); n < nnodes; n++ {
		ns := new(nodeScratch)
		ns.run = func() {
			defer sc.wg.Done()
			ns.reply = sc.r.callNode(sc.ctx, sc.Deadline, n, ns.sub, sc.key, ns)
		}
		sc.nodes = append(sc.nodes, ns)
	}
	for _, ns := range sc.nodes {
		ns.reply = nil
	}
	sc.out = sc.out[:nops]
	return sc.out
}

// Execute runs one batch through the cluster in sc: partition by owning
// node, fan out concurrently, merge in request order. Per-op errors — the
// members' own and the router's (range misses, unavailable members) —
// come back inline, exactly like a single tabledserver's /v1/batch. The
// results alias sc (see Scratch).
//
// key is the client's Idempotency-Key ("" generates one), propagated to
// every sub-batch via appendNodeKey so end-to-end retries stay idempotent
// without any router-side replay cache. sc.Deadline bounds the member
// exchanges (see Scratch).
func (r *Router) Execute(ctx context.Context, sc *Scratch, ops []tabled.Op, key string) []tabled.OpResult {
	switch {
	case key == "":
		sc.key = strconv.AppendUint(append(sc.key[:0], r.keyPrefix...), r.keySeq.Add(1), 36)
	case len(key) > maxClientKey:
		sc.key = append(sc.key[:0], digestKey(key)...)
	default:
		sc.key = append(sc.key[:0], key...)
	}
	plan := r.part.Partition(ops, r.health.FirstHealthy())
	defer plan.Release()
	out := sc.reset(len(ops), len(r.pools))
	if n := plan.MergeLocal(out); n > 0 {
		r.m.unroutableOps(n)
	}
	// The last non-empty sub-batch runs on this goroutine, the others on
	// one each: a batch owned by one member spawns none.
	last := -1
	for n := range r.pools {
		if sc.nodes[n].sub, _ = plan.Sub(n); len(sc.nodes[n].sub) > 0 {
			last = n
		}
	}
	sc.r, sc.ctx = r, ctx
	for n := 0; n < last; n++ {
		if ns := sc.nodes[n]; len(ns.sub) > 0 {
			sc.wg.Add(1)
			go ns.run()
		}
	}
	if last >= 0 {
		ns := sc.nodes[last]
		ns.reply = r.callNode(ctx, sc.Deadline, last, ns.sub, sc.key, ns)
	}
	sc.wg.Wait()
	sc.r, sc.ctx = nil, nil
	// Merge in ascending node order — the broadcast combine rules in
	// MergeInto depend on it for determinism.
	for n := range r.pools {
		if reply := sc.nodes[n].reply; reply != nil {
			plan.MergeInto(out, n, reply)
		}
	}
	plan.FillUnmerged(out, errUnrouted)
	return out
}

// callNode executes one node's sub-batch, honoring the member's observed
// health, its fencing status, and failing over to its replica when the
// primary cannot serve. The decision table (DESIGN §5d/§5e):
//
//	primary healthy, not fenced          → primary, all ops (reads may
//	                                       offload to the replica under
//	                                       Options.ReplicaReads)
//	primary fenced (any live state),
//	  replica promoted and healthy       → replica, all ops (failover)
//	primary fenced, replica up
//	  but not promoted                   → replica reads; writes fenced
//	primary fenced, no usable replica    → everything fails fenced (its
//	                                       data may predate the fork)
//	primary degraded/down, replica
//	  promoted and healthy               → replica, all ops (failover)
//	primary degraded/down, replica up
//	  but not promoted (or read-only)    → replica, reads only
//	primary degraded, no usable replica  → primary, reads only (as before)
//	primary down, no usable replica      → everything fails fast
//
// An observed-healthy primary always wins over a promoted replica —
// UNLESS it is fenced: fencing exists precisely for the stale restarted
// primary whose /readyz looks healthy but whose epoch predates a
// promotion the checker has witnessed. The epoch latch is monotonic, so
// the stale node stays fenced until the spec is amended or it reseeds
// under the new primary (and then reports the new epoch itself). The
// returned slice always has one result per sub-batch op; it and the
// member's reply live in ns. deadline bounds the member exchanges (see
// Scratch.Deadline).
func (r *Router) callNode(ctx context.Context, deadline time.Time, n int, sub []tabled.Op, key []byte, ns *nodeScratch) []tabled.OpResult {
	name := r.spec.Nodes[n].Name
	if cap(ns.res) < len(sub) {
		ns.res = make([]tabled.OpResult, len(sub))
	}
	res := ns.res[:len(sub)]
	client := r.pools[n]
	readsOnly, readOnlyErr := false, ""
	pri, rep, maxEpoch := r.health.view(n)
	st := pri.state
	replicaRead := false
	if fenced := pri.fencedBy(maxEpoch) && st != StateDown; fenced || st != StateHealthy {
		var fencedErr string
		if fenced {
			fencedErr = nodeFencedErr(name, pri.epoch, maxEpoch)
		}
		// Without a replica, rep keeps its Down boot observation.
		repl := r.rpools[n]
		switch {
		case rep.state == StateHealthy && rep.promoted:
			// The follower was explicitly promoted and answers writable:
			// the whole range fails over, and a stale primary gets nothing.
			client = repl
			r.m.failover()
		case rep.state != StateDown:
			// A live but unpromoted (or read-only) replica serves the
			// reads. Writes wait for an operator promotion; a fenced
			// range refuses them rather than route them to either a
			// stale primary or an unpromoted follower.
			client = repl
			readsOnly, readOnlyErr = true, nodeAwaitingPromotionErr(name)
			if fenced {
				readOnlyErr = fencedErr
				r.m.fencedBatch()
			}
			r.m.failover()
		case fenced:
			// Fenced with no usable replica: even reads are refused — the
			// stale node's data may predate writes the promoted (now
			// unreachable) primary acknowledged.
			r.m.fencedBatch()
			for i := range res {
				res[i] = tabled.OpResult{Err: fencedErr}
			}
			return res
		case st == StateDegraded:
			// No usable replica: the degraded primary still owns reads.
			readsOnly, readOnlyErr = true, nodeReadOnlyErr(name)
		default:
			for i := range res {
				res[i] = tabled.OpResult{Err: nodeDownErr(name, errDown)}
			}
			return res
		}
	} else if r.replicaReads {
		// Healthy, unfenced primary with read offload enabled: an all-get
		// sub-batch can go to the replica when it is live, unpromoted
		// (a promoted one is a primary in its own right, handled above),
		// and within the configured lag. Writes, and batches mixing in
		// writes, always take the primary — one node answers, so a batch
		// reads its own writes.
		if repl := r.rpools[n]; repl != nil && allGets(sub) &&
			rep.state != StateDown && !rep.promoted && rep.lag <= r.replicaReadMaxLag {
			client = repl
			replicaRead = true
		}
	}
	send := sub
	filtered := readsOnly && tabled.HasWrites(sub)
	if filtered {
		send, ns.sendPos = ns.send[:0], ns.sendPos[:0]
		for i := range sub {
			if sub[i].Op == "set" || sub[i].Op == "resize" {
				res[i] = tabled.OpResult{Err: readOnlyErr}
			} else {
				send = append(send, sub[i])
				ns.sendPos = append(ns.sendPos, i)
			}
		}
		ns.send = send
		if len(send) == 0 {
			return res
		}
	}
	if replicaRead {
		// Offloaded reads fall back to the primary on any replica error:
		// offload is an optimization, never a new failure mode. The
		// replica refuses them outright while it lacks a write this router
		// acknowledged.
		t0 := time.Now()
		ns.key = appendNodeKey(ns.key[:0], key, name, "/replica", len(send))
		got, _, err := client.Exchange(ctx, &ns.xb, send, ns.key, r.written[n].Load(), deadline)
		if err == nil {
			r.m.nodeBatch(n, len(send), time.Since(t0), false)
			r.m.replicaRead(len(send))
			copy(res, got)
			return res
		}
		if errors.Is(err, tabled.ErrBehind) {
			r.m.replicaBehind(len(send))
		} else if r.logger != nil {
			r.logger.Warn("cluster: replica read failed, falling back to primary",
				"node", name, "ops", len(send), "err", err)
		}
		client = r.pools[n]
	}
	t0 := time.Now()
	ns.key = appendNodeKey(ns.key[:0], key, name, "", len(send))
	got, pos, err := client.Exchange(ctx, &ns.xb, send, ns.key, 0, deadline)
	r.m.nodeBatch(n, len(send), time.Since(t0), err != nil)
	if pos > 0 && client == r.pools[n] {
		latchMax(r.written[n], pos)
	}
	if err != nil {
		if r.logger != nil {
			r.logger.Warn("cluster: sub-batch failed", "node", name, "ops", len(send), "err", err)
		}
		msg := nodeDownErr(name, err)
		for k := range send {
			i := k
			if filtered {
				i = ns.sendPos[k]
			}
			res[i] = tabled.OpResult{Err: msg}
		}
		return res
	}
	if !filtered {
		copy(res, got)
	} else {
		for k, i := range ns.sendPos {
			res[i] = got[k]
		}
	}
	return res
}

// allGets reports whether every op is a plain read — the only batches
// eligible for replica-read offload.
func allGets(ops []tabled.Op) bool {
	for i := range ops {
		if ops[i].Op != "get" {
			return false
		}
	}
	return len(ops) > 0
}

// ClusterStats aggregates the members' /v1/stats into one StatsReply for
// the router's own /v1/stats endpoint: Backend "cluster", the spec's
// mapping, Shards summed over reachable members, dimensions from the
// first reachable one, and Stats combined under the broadcast rules
// (Moves sum, Footprint/Reshapes max). Members marked down are skipped;
// with nothing reachable an error is returned.
func (r *Router) ClusterStats(ctx context.Context) (*tabled.StatsReply, error) {
	type nodeStats struct {
		reply *tabled.StatsReply
		err   error
	}
	replies := make([]nodeStats, len(r.stats))
	var wg sync.WaitGroup
	for n := range r.stats {
		if r.health.State(n) == StateDown {
			replies[n].err = errDown
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			replies[n].reply, replies[n].err = r.stats[n].Stats(ctx)
		}(n)
	}
	wg.Wait()
	agg := &tabled.StatsReply{Info: tabled.Info{Backend: "cluster", Mapping: r.spec.Mapping}}
	got := 0
	for n := range replies {
		if replies[n].err != nil {
			continue
		}
		rep := replies[n].reply
		if got == 0 {
			agg.Rows, agg.Cols = rep.Rows, rep.Cols
		}
		agg.Info.Shards += rep.Info.Shards
		AggregateStats(&agg.Stats, rep.Stats)
		got++
	}
	if got == 0 {
		return nil, fmt.Errorf("%sunavailable: no member reachable for stats", nodeUnavailablePrefix)
	}
	return agg, nil
}

// NodeStatus is one member's row in the /v1/cluster reply.
type NodeStatus struct {
	Name  string `json:"name"`
	Base  string `json:"base"`
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	State string `json:"state"`
	// Replica fields mirror the spec and the checker's replica
	// observations; omitted when the node has no replica.
	Replica         string `json:"replica,omitempty"`
	ReplicaState    string `json:"replica_state,omitempty"`
	ReplicaPromoted bool   `json:"replica_promoted,omitempty"`
	// Epoch observations (replicated nodes only): the primary's last
	// reported epoch, the pair's latched maximum, whether the primary is
	// fenced by it, and the replica's epoch/lag.
	Epoch        uint64  `json:"epoch,omitempty"`
	MaxEpoch     uint64  `json:"max_epoch,omitempty"`
	Fenced       bool    `json:"fenced,omitempty"`
	ReplicaEpoch uint64  `json:"replica_epoch,omitempty"`
	ReplicaLag   uint64  `json:"replica_lag,omitempty"`
	Ops          int64   `json:"ops_total"`
	Errors       int64   `json:"errors_total"`
	P50us        float64 `json:"p50_us"`
	P95us        float64 `json:"p95_us"`
	P99us        float64 `json:"p99_us"`
	// Raw latency histogram (upper bounds in seconds; cumulative counts,
	// final entry = total) so clients — tabledload -nodes — can diff two
	// snapshots and compute percentiles for just their own run.
	LatencyBounds []float64 `json:"latency_bounds,omitempty"`
	LatencyCounts []int64   `json:"latency_counts,omitempty"`
}

// StatusReply is the body of GET /v1/cluster.
type StatusReply struct {
	Mapping string       `json:"mapping"`
	Nodes   []NodeStatus `json:"nodes"`
}

// Status reports the live cluster view: the range map, each member's
// observed health, and its cumulative routing counters.
func (r *Router) Status() StatusReply {
	reply := StatusReply{Mapping: r.spec.Mapping, Nodes: make([]NodeStatus, len(r.spec.Nodes))}
	for n := range r.spec.Nodes {
		ops, errs, bounds, counts := r.m.nodeSnapshot(n)
		pri, rep, maxEpoch := r.health.view(n)
		reply.Nodes[n] = NodeStatus{
			Name:          r.spec.Nodes[n].Name,
			Base:          r.spec.Nodes[n].Base,
			Lo:            r.spec.Nodes[n].Lo,
			Hi:            r.spec.Nodes[n].Hi,
			State:         pri.state.String(),
			Replica:       r.spec.Nodes[n].Replica,
			Ops:           ops,
			Errors:        errs,
			P50us:         HistogramPercentile(bounds, counts, 0.50) * 1e6,
			P95us:         HistogramPercentile(bounds, counts, 0.95) * 1e6,
			P99us:         HistogramPercentile(bounds, counts, 0.99) * 1e6,
			LatencyBounds: bounds,
			LatencyCounts: counts,
		}
		if r.spec.Nodes[n].Replica != "" {
			// An epoch never observed reads 0 and is omitted.
			reply.Nodes[n].ReplicaState = rep.state.String()
			reply.Nodes[n].ReplicaPromoted = rep.promoted
			reply.Nodes[n].Epoch = pri.epoch
			reply.Nodes[n].ReplicaEpoch = rep.epoch
			reply.Nodes[n].MaxEpoch = maxEpoch
			reply.Nodes[n].Fenced = pri.fencedBy(maxEpoch)
			reply.Nodes[n].ReplicaLag = rep.lag
		}
	}
	return reply
}
