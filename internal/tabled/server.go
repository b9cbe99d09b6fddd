package tabled

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
)

// DefaultMaxBatch caps the ops accepted in one /v1/batch request.
const DefaultMaxBatch = 4096

// DefaultMaxBodyBytes caps the /v1/batch request body (http.MaxBytesReader).
const DefaultMaxBodyBytes = 4 << 20

// DefaultBatchTimeout bounds one /v1/batch request end to end; a handler
// that overruns it is abandoned and the client sees a 503.
const DefaultBatchTimeout = 30 * time.Second

// DefaultIdempotencyCache is how many recent Idempotency-Key responses the
// server retains for replay.
const DefaultIdempotencyCache = 4096

// An Op is one operation in a batch request. Exactly the fields its kind
// needs are consulted:
//
//	{"op":"set", "x":1, "y":2, "v":"payload"}
//	{"op":"get", "x":1, "y":2}
//	{"op":"resize", "rows":100, "cols":200}
//	{"op":"dims"}
//	{"op":"stats"}
type Op struct {
	Op   string `json:"op"`
	X    int64  `json:"x,omitempty"`
	Y    int64  `json:"y,omitempty"`
	V    string `json:"v,omitempty"`
	Rows int64  `json:"rows,omitempty"`
	Cols int64  `json:"cols,omitempty"`
}

// An OpResult is the outcome of one Op, in request order.
type OpResult struct {
	OK    bool            `json:"ok"`
	Found bool            `json:"found,omitempty"`
	V     string          `json:"v,omitempty"`
	Rows  int64           `json:"rows,omitempty"`
	Cols  int64           `json:"cols,omitempty"`
	Stats *extarray.Stats `json:"stats,omitempty"`
	Err   string          `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Ops []Op `json:"ops"`
}

// BatchResponse is its reply.
type BatchResponse struct {
	Results []OpResult `json:"results"`
}

// StatsReply is the body of GET /v1/stats.
type StatsReply struct {
	Info  Info           `json:"info"`
	Rows  int64          `json:"rows"`
	Cols  int64          `json:"cols"`
	Stats extarray.Stats `json:"stats"`
}

// ServerOptions configures NewHandler.
type ServerOptions struct {
	// Registry receives request and tabled metrics; nil disables both.
	Registry *obs.Registry
	// Metrics is the batch/shard instrumentation bundle (may be nil).
	Metrics *Metrics
	// Logger, when non-nil, logs one line per request.
	Logger *slog.Logger
	// Ready gates /readyz (nil reads as always ready).
	Ready *obs.Flag
	// MaxBatch caps ops per request (0 → DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes caps the /v1/batch request body; oversized requests get
	// a 413 (0 → DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// BatchTimeout bounds one /v1/batch request; overruns get a 503
	// (0 → DefaultBatchTimeout, negative → no timeout).
	BatchTimeout time.Duration
	// Snapshot, when non-nil, is invoked by POST /v1/snapshot. Backends
	// without snapshot support leave it nil and the endpoint returns 501.
	// With a WAL configured, this should checkpoint through WAL.Checkpoint
	// so the log is reset under the same cut as the snapshot.
	Snapshot func() error
	// WAL, when non-nil, receives every acknowledged set/resize before the
	// HTTP response is written: the durability contract is "200 implies
	// fsynced". A WAL failure flips the server into read-only degraded
	// mode (Writable goes false) instead of killing it.
	WAL *WAL
	// Writable gates write ops (set/resize): while false they get a 503
	// and /readyz reports degraded; reads keep working. Nil reads as
	// always-writable unless a WAL is configured, in which case NewHandler
	// installs a flag so it can degrade.
	Writable *obs.Flag
	// IdempotencyCache is how many recent Idempotency-Key responses are
	// kept for replay (0 → DefaultIdempotencyCache, negative → disabled).
	IdempotencyCache int
	// ReadyDetail, when non-nil and returning non-empty, is appended to
	// the /readyz ready body as "ready (<detail>)" — the daemons wire the
	// persist scheduler's failure text here so a snapshot loop going bad
	// is visible on the probe without flipping readiness.
	ReadyDetail func() string
	// Repl, when non-nil, mounts the replication surface (/v1/repl/conn,
	// /v1/repl/status, /v1/promote — see repl.go) and, when Repl.Gate is
	// set, withholds write acks until the follower confirms durability.
	Repl *Repl
	// ReadOnlyDetail, when non-nil, explains WHY writes are refused while
	// Writable is false — it feeds both the write-gate 503 body and the
	// /readyz degraded detail. Nil keeps the WAL-failure wording; a
	// follower daemon wires its role (and live lag) here instead.
	ReadOnlyDetail func() string
}

// NewHandler mounts the tabled API over b:
//
//	POST /v1/batch     batched get/set/resize/dims/stats
//	GET  /v1/batch/conn upgrade to back-to-back binary batch exchanges
//	                   (docs/WIRE.md §7; the router's member wire)
//	GET  /v1/stats     backend description + cost counters
//	POST /v1/snapshot  persist now (501 unless configured)
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining)
//
// all behind the obs request middleware (metrics + logging).
func NewHandler(b Backend[string], opt ServerOptions) http.Handler {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	if opt.MaxBodyBytes == 0 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opt.BatchTimeout == 0 {
		opt.BatchTimeout = DefaultBatchTimeout
	}
	if opt.WAL != nil && opt.Writable == nil {
		// The server must be able to flip itself read-only on WAL failure.
		opt.Writable = obs.NewFlag(true)
	}
	if opt.ReadOnlyDetail == nil {
		opt.ReadOnlyDetail = func() string { return "read-only (WAL volume failed)" }
	}
	if opt.Repl != nil {
		// A fenced node's refusals should say so — "fenced by epoch N" is
		// actionable (reseed or retire the node); "WAL failed" is not.
		rp, base := opt.Repl, opt.ReadOnlyDetail
		opt.ReadOnlyDetail = func() string {
			if e, ok := rp.FencedBy(); ok {
				return fmt.Sprintf("fenced: a primary at epoch %d exists; reseed required", e)
			}
			return base()
		}
	}
	reqs := obs.NewRequests(opt.Registry, opt.Logger)
	srv := &server{b: b, opt: opt, batchRoute: reqs.Route("/v1/batch")}
	srv.deg = srvkit.NewDegraded(srvkit.DegradedConfig{
		Detail:     "read-only (WAL volume failed)",
		LogMessage: "wal failure: entering read-only degraded mode",
		Writable:   opt.Writable,
		Gauge:      opt.Metrics.degradedGauge(),
		Logger:     opt.Logger,
	})
	if opt.Repl != nil && opt.Repl.Fence == nil {
		// Self-fencing rides the degraded-mode trip: once a requester
		// proves a newer primary epoch exists, this node stops
		// acknowledging writes even if a client bypasses the router.
		opt.Repl.Fence = srv.degrade
	}
	if opt.IdempotencyCache >= 0 {
		n := opt.IdempotencyCache
		if n == 0 {
			n = DefaultIdempotencyCache
		}
		srv.idem = newIdemCache(n)
	}
	mux := http.NewServeMux()
	// Only /v1/batch sits behind the hardening stack: stats is cheap, and
	// an on-demand snapshot save may legitimately outlast the batch
	// timeout. Probes and metrics are mounted beside the stack so a
	// stalled batch can never starve them.
	mux.Handle("POST /v1/batch", srvkit.APIStack{
		MaxBodyBytes:   opt.MaxBodyBytes,
		RequestTimeout: opt.BatchTimeout,
		TimeoutBody:    "batch timed out",
	}.Wrap(http.HandlerFunc(srv.handleBatch)))
	// The upgrade route must stay outside the stack: TimeoutHandler's
	// writer cannot hijack, and a connection outlives any one request.
	mux.HandleFunc("GET "+ConnPath, srv.handleConn)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("POST /v1/snapshot", srv.handleSnapshot)
	if opt.Repl != nil {
		opt.Repl.register(mux, reqs.Route(ReplFramesPath))
	}
	if opt.Registry != nil {
		mux.Handle("GET /metrics", opt.Registry.Handler())
	}
	// Readiness keys off the Writable flag rather than the trip machine so
	// an externally-flipped flag reads as degraded too — which is also how
	// a follower (writable=false by construction) advertises itself: the
	// checker reads "degraded: <detail>" as routable-for-reads.
	writable := opt.Writable
	srvkit.Probes{
		Ready: opt.Ready,
		Degraded: func() (bool, string) {
			return !writable.Get(), opt.ReadOnlyDetail()
		},
		Detail: opt.ReadyDetail,
	}.Register(mux)
	return obs.Middleware(obs.MiddlewareConfig{
		Registry: opt.Registry,
		Logger:   opt.Logger,
		// Fixed route set: the raw path is safe as a label only because
		// the mux 404s everything else; collapse unknown paths anyway.
		PathLabel: func(r *http.Request) string {
			switch r.URL.Path {
			case "/v1/batch", ConnPath, "/v1/stats", "/v1/snapshot", "/metrics", "/healthz", "/readyz",
				ReplConnPath, ReplStatusPath, ReplSnapshotPath, PromotePath:
				return r.URL.Path
			}
			return "other"
		},
	}, mux)
}

type server struct {
	b    Backend[string]
	opt  ServerOptions
	deg  *srvkit.Degraded
	idem *idemCache // nil when disabled
	// batchRoute records upgraded-connection exchanges as /v1/batch
	// requests, beside the ones the obs middleware records.
	batchRoute *obs.Route
}

// IdempotencyKeyHeader carries the client's per-request replay key: a
// server that already answered this key returns the recorded response
// without re-executing (so a retried batch is never applied — or WAL-logged
// — twice).
const IdempotencyKeyHeader = "Idempotency-Key"

// HasWrites reports whether any op mutates the table (set or resize) —
// the same classification the server's read-only gate applies, exported so
// routing layers can keep their write-filtering decisions in lockstep.
func HasWrites(ops []Op) bool {
	for i := range ops {
		if ops[i].Op == "set" || ops[i].Op == "resize" {
			return true
		}
	}
	return false
}

// readOnlyMsg is the write-gate refusal body, carrying the configured
// reason (WAL failure by default; follower role on replicas).
func (s *server) readOnlyMsg() string {
	return "read-only: writes are disabled: " + s.opt.ReadOnlyDetail()
}

// replAck is the semi-synchronous replication gate: a write batch that
// executed and logged locally parks here until the follower's pull
// horizon confirms it is durable remotely too, or the gate times out and
// the ack is refused (503, retryable). No-op without a configured gate or
// for read-only batches — the common path costs one nil check.
func (s *server) replAck(ctx context.Context, ops []Op) error {
	if s.opt.Repl == nil || s.opt.Repl.Gate == nil || s.opt.WAL == nil || !HasWrites(ops) {
		return nil
	}
	// Every record of this batch is ≤ the committed horizon now (Append
	// fsyncs before returning), so waiting for the follower to reach the
	// horizon covers the batch. Concurrent writers can push the horizon a
	// little past it — over-waiting by a few records, never under.
	_, next := s.opt.WAL.SeqState()
	err := s.opt.Repl.Gate.Wait(ctx, next)
	s.opt.Metrics.replAckWait(err != nil)
	return err
}

// refusalMsg phrases a durability refusal for the 503 body.
func refusalMsg(err error) string {
	if errors.Is(err, ErrReplAckTimeout) {
		return "replication unconfirmed, write not acknowledged (durable locally; retry): " + err.Error()
	}
	return "write-ahead log failed, server is now read-only: " + err.Error()
}

// degrade flips the server into read-only mode after a WAL failure: writes
// 503, reads still served, /readyz reporting degraded. The sticky trip
// machine (srvkit.Degraded) never recovers in-process — the WAL cannot
// attest durability anymore, so only a restart (which replays and
// re-opens the log) clears it.
func (s *server) degrade(err error) { s.deg.Degrade(err) }

// wireScratch is the per-request buffer bundle the batch path reuses
// through wirePool: the raw body, decoded ops, execution results, backend
// call buffers, and the outgoing frame. One request (or one upgraded
// connection, for all its exchanges) borrows exactly one scratch, so
// steady-state binary batches allocate nothing beyond the values they
// store.
type wireScratch struct {
	key     []byte // exchange idempotency key
	env     []byte // exchange reply envelope
	body    []byte
	ops     []Op
	results []OpResult
	cells   []Cell[string]
	keys    []Pos
	errs    []error
	gets    []GetResult[string]
	out     []byte
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// growResults sizes scr.results for n ops, reusing capacity.
func (scr *wireScratch) growResults(n int) []OpResult {
	if cap(scr.results) < n {
		scr.results = make([]OpResult, n)
	}
	scr.results = scr.results[:n]
	clear(scr.results)
	return scr.results
}

// growRun sizes the backend-call buffers for an n-cell run.
func (scr *wireScratch) growRun(n int) {
	if cap(scr.cells) < n {
		scr.cells = make([]Cell[string], n)
		scr.keys = make([]Pos, n)
		scr.errs = make([]error, n)
		scr.gets = make([]GetResult[string], n)
	}
}

// isBinaryContentType reports whether ct selects the binary batch codec
// (parameters after ';' are ignored).
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinary
}

// readBody reads r into buf[:0] (growing as needed) up to the byte cap
// already imposed by the MaxBytesReader wrapping r.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleBatch serves one /v1/batch request. The body cap and request
// timeout are already in place — srvkit.APIStack wraps this handler — so
// r.Body is a MaxBytesReader and overruns surface as *http.MaxBytesError.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.handleBatchBinary(w, r)
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "bad request: empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > s.opt.MaxBatch {
		http.Error(w, fmt.Sprintf("bad request: batch of %d exceeds limit %d",
			len(req.Ops), s.opt.MaxBatch), http.StatusBadRequest)
		return
	}
	if !s.opt.Writable.Get() && HasWrites(req.Ops) {
		http.Error(w, s.readOnlyMsg(), http.StatusServiceUnavailable)
		return
	}
	key := r.Header.Get(IdempotencyKeyHeader)
	if s.replayIdempotent(w, key) {
		return
	}
	scr := wirePool.Get().(*wireScratch)
	defer wirePool.Put(scr)
	results, walErr := s.executeInto(req.Ops, scr)
	if walErr == nil {
		walErr = s.replAck(r.Context(), req.Ops)
	}
	if walErr != nil {
		// The batch was applied in memory but could not be made durable
		// (or durably replicated): refuse the ack. The client retries and
		// either lands on the read-only gate above or re-executes
		// idempotently once replication catches up.
		http.Error(w, refusalMsg(walErr), http.StatusServiceUnavailable)
		return
	}
	resp := BatchResponse{Results: results}
	body, err := json.Marshal(&resp)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if s.idem != nil && key != "" {
		s.idem.put(key, "application/json", body)
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil && s.opt.Logger != nil {
		s.opt.Logger.Warn("batch: write", "err", err)
	}
}

// replayIdempotent answers a retransmitted batch from the idempotency
// cache, reporting whether it did. The recorded response is replayed with
// the content type it was first produced under — a client that retries a
// batch keeps its wire format across retries.
func (s *server) replayIdempotent(w http.ResponseWriter, key string) bool {
	if s.idem == nil || key == "" {
		return false
	}
	ct, body, ok := s.idem.get(key)
	if !ok {
		return false
	}
	// A retransmit of a batch we already executed and acknowledged
	// (the ack was lost in flight): replay the recorded response.
	s.opt.Metrics.idempotentReplay()
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Idempotent-Replay", "true")
	_, _ = w.Write(body)
	return true
}

// handleBatchBinary is the application/x-tabled-batch arm of /v1/batch:
// one pooled scratch carries the request body, decoded ops, execution
// buffers and the response frame end to end, so a steady-state batch
// allocates only the values it stores (set values are cloned out of the
// pooled body — everything else aliases or reuses scratch).
func (s *server) handleBatchBinary(w http.ResponseWriter, r *http.Request) {
	scr := wirePool.Get().(*wireScratch)
	defer wirePool.Put(scr)
	body, err := readBody(scr.body, r.Body)
	scr.body = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading request: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := r.Header.Get(IdempotencyKeyHeader)
	if s.replayIdempotent(w, key) {
		return
	}
	out, status, msg := s.batchBinary(body, scr)
	if status == http.StatusOK {
		if err := s.replAck(r.Context(), scr.ops); err != nil {
			status, msg = http.StatusServiceUnavailable, refusalMsg(err)
		}
	}
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	if s.idem != nil && key != "" {
		// The frame lives in pooled scratch; the cache needs its own copy.
		s.idem.put(key, ContentTypeBinary, append([]byte(nil), out...))
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	if _, err := w.Write(out); err != nil && s.opt.Logger != nil {
		s.opt.Logger.Warn("batch: write", "err", err)
	}
}

// batchBinary decodes, validates, executes and re-encodes one binary batch
// body using scr throughout. On success it returns the response frame
// (aliasing scr.out) and 200; otherwise the status and message for
// http.Error. Factored off the HTTP handler so the allocation guardrail
// test can pin the whole server-side batch path without the net/http
// layer's own bookkeeping.
func (s *server) batchBinary(body []byte, scr *wireScratch) (out []byte, status int, msg string) {
	ops, err := DecodeBatchRequest(body, scr.ops, s.opt.MaxBatch)
	if err != nil {
		return nil, http.StatusBadRequest, "bad request: " + err.Error()
	}
	scr.ops = ops
	if len(ops) == 0 {
		return nil, http.StatusBadRequest, "bad request: empty batch"
	}
	if !s.opt.Writable.Get() && HasWrites(ops) {
		return nil, http.StatusServiceUnavailable, s.readOnlyMsg()
	}
	// Decoded set values alias the pooled request body, which the next
	// request will overwrite; anything the table retains must own its
	// bytes. This clone is the binary set path's one allocation per op.
	for i := range ops {
		if ops[i].Op == "set" {
			ops[i].V = strings.Clone(ops[i].V)
		}
	}
	results, walErr := s.executeInto(ops, scr)
	if walErr != nil {
		return nil, http.StatusServiceUnavailable, refusalMsg(walErr)
	}
	out, err = AppendBatchResponse(scr.out[:0], results)
	if err != nil {
		return nil, http.StatusInternalServerError, "encoding response: " + err.Error()
	}
	scr.out = out
	return out, http.StatusOK, ""
}

// executeInto runs ops in request order, fusing maximal runs of
// consecutive gets (resp. sets) into one batched backend call so a
// homogeneous batch pays one lock acquisition per touched shard, not per
// cell. All working storage comes from scr; the returned results alias
// scr.results and are valid until scr is reused. When a WAL is configured,
// each applied set run (its successful cells) and each applied resize is
// logged and fsynced before executeInto returns; a non-nil walErr means
// durability was lost mid-batch and the caller must not acknowledge.
func (s *server) executeInto(ops []Op, scr *wireScratch) (results []OpResult, walErr error) {
	results = scr.growResults(len(ops))
	for i := 0; i < len(ops); {
		j := i + 1
		for (ops[i].Op == "get" || ops[i].Op == "set") && j < len(ops) && ops[j].Op == ops[i].Op {
			j++
		}
		start := time.Now()
		failed := false
		switch ops[i].Op {
		case "set":
			scr.growRun(j - i)
			cells := scr.cells[:j-i]
			for k := i; k < j; k++ {
				cells[k-i] = Cell[string]{X: ops[k].X, Y: ops[k].Y, V: ops[k].V}
			}
			errs := scr.errs[:j-i]
			s.b.SetBatchInto(cells, errs)
			acked := cells[:0]
			for k, err := range errs {
				if err != nil {
					results[i+k] = OpResult{Err: err.Error()}
					failed = true
				} else {
					results[i+k] = OpResult{OK: true}
					acked = append(acked, cells[k])
				}
			}
			if s.opt.WAL != nil && len(acked) > 0 {
				if err := s.opt.WAL.AppendSet(acked); err != nil {
					s.degrade(err)
					s.opt.Metrics.op(ops[i].Op, j-i, time.Since(start), true)
					return results, err
				}
			}
		case "get":
			scr.growRun(j - i)
			keys := scr.keys[:j-i]
			for k := i; k < j; k++ {
				keys[k-i] = Pos{X: ops[k].X, Y: ops[k].Y}
			}
			gets := scr.gets[:j-i]
			s.b.GetBatchInto(keys, gets)
			for k, gr := range gets {
				if gr.Err != nil {
					results[i+k] = OpResult{Err: gr.Err.Error()}
					failed = true
				} else {
					results[i+k] = OpResult{OK: true, Found: gr.OK, V: gr.V}
				}
			}
		case "resize":
			if err := s.b.Resize(ops[i].Rows, ops[i].Cols); err != nil {
				results[i] = OpResult{Err: err.Error()}
				failed = true
			} else {
				results[i] = OpResult{OK: true}
				if s.opt.WAL != nil {
					if err := s.opt.WAL.AppendResize(ops[i].Rows, ops[i].Cols); err != nil {
						s.degrade(err)
						s.opt.Metrics.op(ops[i].Op, 1, time.Since(start), true)
						return results, err
					}
				}
			}
		case "dims":
			rows, cols := s.b.Dims()
			results[i] = OpResult{OK: true, Rows: rows, Cols: cols}
		case "stats":
			st := s.b.Stats()
			results[i] = OpResult{OK: true, Stats: &st}
		default:
			// Unknown kinds still flow through Metrics.op, whose nil-safe
			// metric lookups make unregistered labels a silent no-op.
			results[i] = OpResult{Err: fmt.Sprintf("unknown op %q", ops[i].Op)}
			failed = true
		}
		s.opt.Metrics.op(ops[i].Op, j-i, time.Since(start), failed)
		i = j
	}
	return results, nil
}

// idemEntry is one recorded response: its body plus the content type it
// was produced under, so a binary batch replays as binary and a JSON one
// as JSON.
type idemEntry struct {
	ct   string
	body []byte
}

// idemCache is a bounded FIFO map of Idempotency-Key → recorded response.
// Lookup-then-execute is not atomic, so two concurrent requests with
// the same key can both execute — acceptable, because batch ops are
// value-idempotent; the cache exists to keep *sequential* retries (the
// common lost-ack case) from re-executing and double-logging.
type idemCache struct {
	mu    sync.Mutex
	max   int
	m     map[string]idemEntry
	order []string
}

func newIdemCache(max int) *idemCache {
	return &idemCache{max: max, m: make(map[string]idemEntry, max)}
}

func (c *idemCache) get(key string) (ct string, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return e.ct, e.body, ok
}

// getBytes is get for a key held in a byte slice, without converting it
// to a string.
func (c *idemCache) getBytes(key []byte) (ct string, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[string(key)]
	return e.ct, e.body, ok
}

func (c *idemCache) put(key, ct string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= c.max && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[key] = idemEntry{ct: ct, body: body}
	c.order = append(c.order, key)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	rows, cols := s.b.Dims()
	reply := StatsReply{Info: s.b.Describe(), Rows: rows, Cols: cols, Stats: s.b.Stats()}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&reply); err != nil && s.opt.Logger != nil {
		s.opt.Logger.Warn("stats: encode", "err", err)
	}
}

func (s *server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.opt.Snapshot == nil {
		http.Error(w, "snapshots not configured", http.StatusNotImplemented)
		return
	}
	start := time.Now()
	err := s.opt.Snapshot()
	s.opt.Metrics.snapshot(time.Since(start), err)
	if err != nil {
		http.Error(w, "snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "ok")
}

// ErrRemote wraps an error string returned by the server in a batch
// result, so client callers can distinguish transport failures from per-op
// failures.
var ErrRemote = errors.New("tabled: remote error")
