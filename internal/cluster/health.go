package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A State is a cluster member's last observed health.
type State int32

const (
	// StateHealthy: /readyz answered 200 — reads and writes route there.
	StateHealthy State = iota
	// StateDegraded: /readyz answered "degraded: …" (the member's WAL
	// failed and it is read-only) — reads still route there, writes for
	// its range fail fast at the router.
	StateDegraded
	// StateDown: /readyz unreachable, draining, or otherwise not serving —
	// nothing routes there; its range is unavailable.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// DefaultHealthInterval is how often the checker sweeps the members.
const DefaultHealthInterval = 500 * time.Millisecond

// DefaultHealthTimeout bounds one probe request.
const DefaultHealthTimeout = 2 * time.Second

// A Checker actively polls every member and publishes, per node, one
// observation of its primary and one of its replica for the router's
// routing decisions. An observation is immutable once published: each
// probe builds a new one and stores it with one pointer store, so a
// reader never sees fields from two different sweeps.
//
// Primaries start Healthy (optimistic, so a router booted before its
// checker's first sweep does not refuse traffic); call CheckNow once at
// boot for an immediate baseline. Replicas start Down: a replica is a
// fallback, and falling back to an unverified one is worse than failing
// fast.
//
// Each node also keeps its pair's max-epoch latch: the highest epoch
// either member ever reported. It never decreases, and that monotonicity
// is the fencing invariant: once a promotion at epoch E is observed, a
// primary reporting < E is a stale restarted ex-primary, and the router
// keeps writes away from it even though its /readyz answers healthy. A
// Reloader hands the latch on to the next router's checker for every pair
// the new spec keeps.
type Checker struct {
	spec     *Spec
	interval time.Duration
	timeout  time.Duration
	httpc    *http.Client
	logger   *slog.Logger
	m        *Metrics
	pairs    []pair // indexed like spec.Nodes
}

// A pair is one node's last observed primary and replica (the replica
// stays at its Down boot value when the node has none) and the pair's
// max-epoch latch, a cell shared with the checker this one replaced when
// the spec kept the pair.
type pair struct {
	pri, rep atomic.Pointer[observation]
	max      *atomic.Uint64
}

// An observation is what one probe saw of one endpoint. Fields the probe
// did not refresh carry over from the previous observation: a down
// primary keeps its last epoch, and a down replica reads not promoted but
// keeps its epoch and lag.
type observation struct {
	state    State
	promoted bool // /v1/repl/status answered role "primary"
	hasEpoch bool // epoch was observed at least once
	epoch    uint64
	lag      uint64 // records behind the source's committed horizon
}

// fencedBy reports whether the endpoint is fenced under its pair's max
// epoch: its own epoch has been observed, and so has a promotion it
// predates. A fenced primary never receives writes from the router,
// however healthy its /readyz looks; the promoted replica owns the range
// until the spec (or the stale node) is fixed.
func (o *observation) fencedBy(maxEpoch uint64) bool { return o.hasEpoch && o.epoch < maxEpoch }

// CheckerOptions configures NewChecker; zero values select defaults.
type CheckerOptions struct {
	// Interval between sweeps (0 → DefaultHealthInterval).
	Interval time.Duration
	// Timeout per probe request (0 → DefaultHealthTimeout).
	Timeout time.Duration
	// HTTPClient issues the probes (nil → http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives one line per state transition (may be nil).
	Logger *slog.Logger
	// Metrics receives per-node up/degraded gauges (may be nil).
	Metrics *Metrics
}

// NewChecker builds a checker over the spec's members.
func NewChecker(spec *Spec, opt CheckerOptions) *Checker {
	if opt.Interval <= 0 {
		opt.Interval = DefaultHealthInterval
	}
	if opt.Timeout <= 0 {
		opt.Timeout = DefaultHealthTimeout
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = http.DefaultClient
	}
	c := &Checker{
		spec:     spec,
		interval: opt.Interval,
		timeout:  opt.Timeout,
		httpc:    opt.HTTPClient,
		logger:   opt.Logger,
		m:        opt.Metrics,
		pairs:    make([]pair, len(spec.Nodes)),
	}
	for i := range c.pairs {
		c.pairs[i].pri.Store(&observation{state: StateHealthy})
		c.pairs[i].rep.Store(&observation{state: StateDown})
		c.pairs[i].max = new(atomic.Uint64)
	}
	return c
}

// State returns node n's primary's last observed state.
func (c *Checker) State(n int) State { return c.pairs[n].pri.Load().state }

// view loads node n's last primary and replica observations and its
// pair's max epoch.
func (c *Checker) view(n int) (pri, rep *observation, maxEpoch uint64) {
	p := &c.pairs[n]
	return p.pri.Load(), p.rep.Load(), p.max.Load()
}

// latchMax raises a to at least v, monotonically.
func latchMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// FirstHealthy returns the lowest-index node whose primary is healthy and
// not fenced, falling back to the lowest live one (degraded, or fenced
// with its replica as callNode's only way to serve), then to 0 — the
// anycast target must always exist even when everything is down.
func (c *Checker) FirstHealthy() int {
	live := -1
	for i := range c.pairs {
		pri, _, maxEpoch := c.view(i)
		switch {
		case pri.state == StateHealthy && !pri.fencedBy(maxEpoch):
			return i
		case pri.state != StateDown && live < 0:
			live = i
		}
	}
	if live >= 0 {
		return live
	}
	return 0
}

// Summary reports whether every member is healthy and, when not, a short
// detail naming the unhealthy ones, e.g. "1/3 nodes unhealthy: node-1
// down". A member whose replica covers for it says so — "node-1 down
// (replica promoted)" reads very differently from a dead range.
func (c *Checker) Summary() (allHealthy bool, detail string) {
	var bad []string
	for i := range c.pairs {
		pri, rep, maxEpoch := c.view(i)
		if pri.state == StateHealthy {
			if pri.fencedBy(maxEpoch) {
				// Healthy by probe, but a newer epoch exists: the node is
				// a stale ex-primary the router refuses writes to.
				bad = append(bad, fmt.Sprintf("%s fenced (epoch %d < %d)",
					c.spec.Nodes[i].Name, pri.epoch, maxEpoch))
			}
			continue
		}
		entry := c.spec.Nodes[i].Name + " " + pri.state.String()
		if c.spec.Nodes[i].Replica != "" {
			switch {
			case rep.promoted && rep.state != StateDown:
				entry += " (replica promoted)"
			case rep.state != StateDown:
				entry += " (replica serving reads)"
			default:
				entry += " (replica down)"
			}
		}
		bad = append(bad, entry)
	}
	if len(bad) == 0 {
		return true, ""
	}
	return false, fmt.Sprintf("%d/%d nodes unhealthy: %s", len(bad), len(c.spec.Nodes), strings.Join(bad, ", "))
}

// CheckNow probes every member and every configured replica once,
// concurrently, each through the same routine (check), and publishes one
// new observation per endpoint before returning.
func (c *Checker) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	check := func(i int, replica bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.check(ctx, i, replica)
		}()
	}
	for i, n := range c.spec.Nodes {
		check(i, false)
		if n.Replica != "" {
			check(i, true)
		}
	}
	wg.Wait()
	c.m.healthSweep()
}

// check observes node i's primary, or its replica, publishes the
// observation, latches the epoch it reported into the pair maximum (the
// fencing input), and reports what changed to the log and the metrics.
func (c *Checker) check(ctx context.Context, i int, replica bool) {
	node, p := &c.spec.Nodes[i], &c.pairs[i]
	slot, base := &p.pri, node.Base
	if replica {
		slot, base = &p.rep, node.Replica
	}
	old := slot.Load()
	o, fresh := c.observe(ctx, base, node.Replica != "", old)
	wasFenced := old.fencedBy(p.max.Load())
	if fresh {
		latchMax(p.max, o.epoch)
	}
	slot.Store(o)
	if replica {
		if (old.state != o.state || old.promoted != o.promoted) && c.logger != nil {
			c.logger.Info("cluster: replica state change",
				"node", node.Name, "from", old.state.String(), "to", o.state.String(),
				"promoted", o.promoted)
		}
		c.m.replica(i, o, fresh)
		return
	}
	if old.state != o.state && c.logger != nil {
		c.logger.Info("cluster: node state change",
			"node", node.Name, "from", old.state.String(), "to", o.state.String())
	}
	fenced := false
	if fresh {
		maxEpoch := p.max.Load()
		fenced = o.fencedBy(maxEpoch)
		if fenced != wasFenced && c.logger != nil {
			c.logger.Warn("cluster: primary fencing change",
				"node", node.Name, "fenced", fenced, "epoch", o.epoch, "max_epoch", maxEpoch)
		}
	}
	c.m.primary(i, o, fresh, fenced)
}

// replProbe is the slice of /v1/repl/status the checker consumes.
type replProbe struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	Lag   uint64 `json:"lag"`
}

// observe probes one endpoint and returns its next observation after
// prev. Its /readyz classifies the state:
//
//	200                         → healthy
//	503 with a "degraded:" body → degraded (read-only: a tripped WAL
//	                              volume, or a live follower)
//	anything else               → down (unreachable, draining, …)
//
// A live endpoint of a replicated node is then asked its role, epoch and
// lag on /v1/repl/status; fresh reports that it answered. Without an
// answer nothing is guessed: promoted reads false, and the epoch and lag
// carry over from prev.
func (c *Checker) observe(ctx context.Context, base string, replicated bool, prev *observation) (o *observation, fresh bool) {
	o = &observation{hasEpoch: prev.hasEpoch, epoch: prev.epoch, lag: prev.lag}
	code, body, err := c.fetch(ctx, base+"/readyz", 256)
	switch {
	case err == nil && code == http.StatusOK:
		o.state = StateHealthy
	case err == nil && code == http.StatusServiceUnavailable &&
		strings.HasPrefix(strings.TrimSpace(string(body)), "degraded"):
		o.state = StateDegraded
	default:
		o.state = StateDown
	}
	if !replicated || o.state == StateDown {
		return o, false
	}
	var rs replProbe
	code, body, err = c.fetch(ctx, base+"/v1/repl/status", 4096)
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &rs) != nil {
		return o, false
	}
	o.promoted, o.hasEpoch, o.epoch, o.lag = rs.Role == "primary", true, rs.Epoch, rs.Lag
	return o, true
}

// fetch GETs url under the probe timeout and returns the status and at
// most limit bytes of the body. A failed body read is dropped: observe
// classifies /readyz by status first, and a cut-short status body fails
// to decode.
func (c *Checker) fetch(ctx context.Context, url string, limit int64) (code int, body []byte, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp.StatusCode, body, nil
}

// Run sweeps the members until ctx ends — wire it as a srvkit.Lifecycle
// background task. Each gap is jittered over [interval/2, 3·interval/2):
// N routers probing the same members would otherwise lock step (they all
// start on deploy, and a slow member stretches every router's sweep by
// the same timeout), hammering each /readyz in synchronized bursts.
// Jitter desynchronizes them within a few sweeps; the expected gap stays
// one interval.
func (c *Checker) Run(ctx context.Context) {
	t := time.NewTimer(c.jitteredInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.CheckNow(ctx)
			t.Reset(c.jitteredInterval())
		}
	}
}

// jitteredInterval draws one sweep gap: interval/2 plus up to one
// interval, uniformly.
func (c *Checker) jitteredInterval() time.Duration {
	return c.interval/2 + time.Duration(rand.Int63n(int64(c.interval)))
}
