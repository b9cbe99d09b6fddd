package cluster

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/tabled"
)

// HandlerOptions configures NewHandler. Zero limits inherit the tabled
// server defaults so a batch the router accepts is one every member will
// accept too; the body cap is always tabled.DefaultMaxBodyBytes, the cap
// every member uses.
type HandlerOptions struct {
	// MaxBatch caps ops per request (0 → tabled.DefaultMaxBatch).
	MaxBatch int
	// BatchTimeout bounds one routed batch end to end, fan-out included,
	// from its arrival: the member exchanges end at the deadline, and a
	// batch past it is refused with a 503 "batch timed out" (0 →
	// tabled.DefaultBatchTimeout, negative → no timeout).
	BatchTimeout time.Duration
	// Limiter is the per-client admission control on /v1/batch (nil or
	// zero-Limit admits everything).
	Limiter *Limiter
	// Registry receives request metrics and serves /metrics (may be nil;
	// pass the same registry given to New so cluster_* metrics co-publish).
	Registry *obs.Registry
	// Logger receives the request log (may be nil): failed and slow
	// requests at Info, the rest at Debug (see obs.Route.Observe).
	Logger *slog.Logger
	// Ready gates /readyz for drains (nil reads as always ready).
	Ready *obs.Flag
}

// A RouterSource yields the router the front door should serve a request
// with. A *Router is its own (fixed) source; a *Reloader swaps routers
// live on spec reloads. The handler resolves the source per request, so a
// reload needs no handler or listener restart.
type RouterSource interface {
	Router() *Router
}

// NewHandler mounts the router's front door — wire-compatible with a
// single tabledserver, so tabled.Client and tabledload point at a cluster
// unchanged:
//
//	POST /v1/batch    batched ops, JSON or binary wire, routed by range
//	GET  /v1/stats    aggregated member stats (Backend "cluster")
//	GET  /v1/cluster  range map + member health + routing counters
//	GET  /metrics     Prometheus text exposition
//	GET  /healthz     liveness
//	GET  /readyz      readiness; member trouble shows as ready detail
//
// /readyz stays 200 while members are down: a router that went unready
// whenever one range was unavailable would let a load balancer blackhole
// the healthy ranges too. Unhealthy members surface in the ready body —
// "ready (1/3 nodes unhealthy: node-2 down)" — and on /v1/cluster.
func NewHandler(src RouterSource, opt HandlerOptions) http.Handler {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = tabled.DefaultMaxBatch
	}
	if opt.BatchTimeout == 0 {
		opt.BatchTimeout = tabled.DefaultBatchTimeout
	}
	h := &frontDoor{src: src, opt: opt}
	mux := http.NewServeMux()
	// Pinning the current router's metrics here is safe across reloads:
	// the rate-limited counter carries no per-node labels, so every
	// reloaded router's Metrics (same registry, get-or-create) holds the
	// identical counter object.
	// The batch route has no other wrapper: tabled.ReadBatch caps the
	// body, and handleBatch and the member exchanges enforce the batch
	// timeout, so a batch pays no timer or goroutine for it.
	mux.Handle("POST /v1/batch", opt.Limiter.Middleware(nil, src.Router().m, http.HandlerFunc(h.handleBatch)))
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("GET /v1/cluster", h.handleCluster)
	if opt.Registry != nil {
		mux.Handle("GET /metrics", opt.Registry.Handler())
	}
	srvkit.Probes{
		Ready: opt.Ready,
		Detail: func() string {
			_, detail := src.Router().health.Summary()
			return detail
		},
	}.Register(mux)
	return obs.Middleware(obs.MiddlewareConfig{
		Registry: opt.Registry,
		Logger:   opt.Logger,
		PathLabel: func(r *http.Request) string {
			switch r.URL.Path {
			case "/v1/batch", "/v1/stats", "/v1/cluster", "/metrics", "/healthz", "/readyz":
				return r.URL.Path
			}
			return "other"
		},
	}, mux)
}

type frontDoor struct {
	src RouterSource
	opt HandlerOptions
}

// A batchScratch is the memory one front-door batch works in: the
// request's decode buffers and the routed batch's Scratch. The results
// alias the Scratch, so it goes back to the pool only once the reply (or
// the refusal) is written.
type batchScratch struct {
	buf tabled.BatchBuf
	sc  Scratch
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// handleBatch reads one batch through tabled's wire layer (the same
// negotiation, body cap and validation as a member's), routes it through
// the cluster, and answers in the request's wire. Per-op failures come
// back inline under a 200; only a batch in which EVERY op failed and at
// least one failure was member unavailability collapses to a typed 503,
// so a blanket outage looks like one retryable error instead of a
// success full of failures. The batch timeout runs from the handler's
// entry: a batch past it after decode, or after the fan-out, is refused
// with a 503 "batch timed out", and it bounds every member exchange.
func (h *frontDoor) handleBatch(w http.ResponseWriter, r *http.Request) {
	deadline := tabled.BatchDeadline(time.Now(), h.opt.BatchTimeout)
	bs := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(bs)
	ops, binary, ok := tabled.ReadBatch(w, r, &bs.buf, h.opt.MaxBatch)
	if !ok {
		return
	}
	if tabled.Expired(deadline) {
		http.Error(w, tabled.TimedOut, http.StatusServiceUnavailable)
		return
	}
	bs.sc.Deadline = deadline
	results := h.src.Router().Execute(r.Context(), &bs.sc, ops, r.Header.Get(tabled.IdempotencyKeyHeader))
	if tabled.Expired(deadline) {
		http.Error(w, tabled.TimedOut, http.StatusServiceUnavailable)
		return
	}
	if AllUnavailable(results) {
		// The whole batch failed on unavailable members (e.g. a write to a
		// degraded range, or every owner down): a typed, retryable refusal.
		// A fenced owner answers 409, not 503 — retrying won't help until
		// the stale primary is reseeded or the spec amended, and the
		// distinct status keeps clients from hammering a conflict.
		status := http.StatusServiceUnavailable
		if AnyFenced(results) {
			status = http.StatusConflict
		}
		http.Error(w, firstError(results), status)
		return
	}
	_ = tabled.WriteBatch(w, binary, results, &bs.buf)
}

func firstError(results []tabled.OpResult) string {
	for i := range results {
		if IsUnavailable(results[i].Err) {
			return results[i].Err
		}
	}
	return results[0].Err
}

func (h *frontDoor) handleStats(w http.ResponseWriter, r *http.Request) {
	reply, err := h.src.Router().ClusterStats(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func (h *frontDoor) handleCluster(w http.ResponseWriter, r *http.Request) {
	reply := h.src.Router().Status()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}
