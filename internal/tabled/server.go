package tabled

import (
	"bytes"
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

// DefaultBatchTimeout bounds one batch end to end, on /v1/batch and on an
// exchange: a batch found past it at a stage boundary, or parked past it
// in a wait, is refused with a 503 "batch timed out".
const DefaultBatchTimeout = 30 * time.Second

// DefaultIdempotencyCache is how many recent replies to batches that
// write the server retains for Idempotency-Key replay.
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
	// Logger, when non-nil, logs requests that fail or are slow (see
	// obs.Route.Observe).
	Logger *slog.Logger
	// Ready gates /readyz (nil reads as always ready).
	Ready *obs.Flag
	// MaxBatch caps ops per request (0 → DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes caps the /v1/batch request body; oversized requests get
	// a 413 (0 → DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// BatchTimeout bounds one batch, on /v1/batch or an exchange, from its
	// arrival; overruns get a 503 "batch timed out" (0 →
	// DefaultBatchTimeout, negative → no timeout).
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
	srv := &server{b: b, opt: opt, idem: newIdemCache(DefaultIdempotencyCache),
		batchRoute: reqs.Route("/v1/batch")}
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
	mux := http.NewServeMux()
	// Only /v1/batch sits behind the body cap. Its batch timeout is no
	// wrapper: serve enforces it (see BatchDeadline), so a batch that
	// never parks pays no timer, goroutine or response copy for it.
	mux.Handle("POST /v1/batch", srvkit.APIStack{
		MaxBodyBytes: opt.MaxBodyBytes,
	}.Wrap(http.HandlerFunc(srv.handleBatch)))
	// The upgrade route stays outside the stack: a connection outlives
	// any one request, and its exchanges read their own capped frames.
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
	idem *idemCache
	// batchRoute records upgraded-connection exchanges as /v1/batch
	// requests, beside the ones the obs middleware records.
	batchRoute *obs.Route
}

// IdempotencyKeyHeader carries the client's per-request replay key: a
// server that already acknowledged a batch that writes under this key
// returns the recorded response without re-executing (so a retried batch
// is never applied — or WAL-logged — twice).
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
// horizon confirms it is durable remotely too, or the gate times out, or
// the batch's deadline passes, and the ack is refused (503, retryable).
// No-op without a configured gate — the common path costs one nil check.
// serve calls it for writes only.
func (s *server) replAck(ctx context.Context, deadline time.Time) error {
	if s.opt.Repl == nil || s.opt.Repl.Gate == nil || s.opt.WAL == nil {
		return nil
	}
	// Every record of this batch is ≤ the committed horizon now (Append
	// fsyncs before returning), so waiting for the follower to reach the
	// horizon covers the batch. Concurrent writers can push the horizon a
	// little past it — over-waiting by a few records, never under.
	_, next := s.opt.WAL.SeqState()
	err := s.opt.Repl.Gate.Wait(ctx, deadline, next)
	s.opt.Metrics.replAckWait(errors.Is(err, ErrReplAckTimeout))
	return err
}

// TimedOut is the refusal text, with a 503, of a batch found past its
// deadline; on the node a wait that ended at the deadline adds what it
// waited for.
const TimedOut = "batch timed out"

// BatchDeadline is the deadline of a batch that arrived at arrival under
// timeout: the zero time, none, when timeout is not positive.
func BatchDeadline(arrival time.Time, timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return arrival.Add(timeout)
}

// Expired reports whether deadline is set and has passed.
func Expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// waitEnded reports whether err is a wait's end by its context or its
// deadline rather than a failure of what it waited for.
func waitEnded(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// refusalMsg phrases a durability refusal for the 503 body: a replication
// ack that timed out, a batch that ended while waiting for its WAL sync
// or replication ack, or a failed WAL (which alone makes the node
// read-only).
func refusalMsg(err error) string {
	switch {
	case errors.Is(err, ErrReplAckTimeout):
		return "replication unconfirmed, write not acknowledged (durable locally; retry): " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return TimedOut + " awaiting the replication ack, write not acknowledged (durable locally; retry): " + err.Error()
	case errors.Is(err, context.Canceled):
		return "batch canceled awaiting the replication ack, write not acknowledged (durable locally; retry): " + err.Error()
	}
	return "write-ahead log failed, server is now read-only: " + err.Error()
}

// walWaitMsg phrases the refusal of a batch that ended while waiting for
// its WAL sync: the write is applied and logged, and the next sync makes
// it durable, but it was not acknowledged.
func walWaitMsg(err error) string {
	what := TimedOut
	if errors.Is(err, context.Canceled) {
		what = "batch canceled"
	}
	return what + " awaiting the WAL sync, write not acknowledged (retry): " + err.Error()
}

// degrade flips the server into read-only mode after a WAL failure: writes
// 503, reads still served, /readyz reporting degraded. The sticky trip
// machine (srvkit.Degraded) never recovers in-process — the WAL cannot
// attest durability anymore, so only a restart (which replays and
// re-opens the log) clears it.
func (s *server) degrade(err error) { s.deg.Degrade(err) }

// BatchBuf is the reusable storage of one /v1/batch request on either
// front door, tabledserver's or tabledrouter's: the raw body, the decoded
// ops, the results and the reply frame. ReadBatch and WriteBatch reuse its
// capacity, so pool it: a steady-state binary batch then allocates nothing
// on its way in or out.
type BatchBuf struct {
	body    []byte
	ops     []Op
	results []OpResult
	out     []byte
}

// wireScratch is the per-request buffer bundle the node's batch path
// reuses through wirePool: the request's BatchBuf plus the exchange's
// idempotency key and the backend call buffers. One request (or one upgraded
// connection, for all its exchanges) borrows exactly one scratch, so
// steady-state binary batches allocate nothing of their own: set values
// alias the body and the backend copies them.
type wireScratch struct {
	BatchBuf
	key   []byte // exchange idempotency key
	cells []Cell[string]
	keys  []Pos
	errs  []error
	gets  []GetResult[string]
	rec   []byte // WAL set records, encoded here and written before appendSet returns
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

// ReadBatch reads and decodes one POST /v1/batch request into buf. The
// Content-Type picks the wire, returned as binary: a §2 frame or, by
// default, a JSON BatchRequest. The body is read under the cap of the
// caller's srvkit.APIStack, and the batch must hold 1 to maxBatch ops. On
// failure ReadBatch has answered w — 413 for an oversized body, else 400 —
// and ok is false. Set values decoded from a frame alias buf until its
// next use.
func ReadBatch(w http.ResponseWriter, r *http.Request, buf *BatchBuf, maxBatch int) (ops []Op, binary, ok bool) {
	binary = isBinaryContentType(r.Header.Get("Content-Type"))
	var err error
	if buf.body, err = readBody(buf.body, r.Body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "reading request: "+err.Error(), http.StatusBadRequest)
		}
		return nil, binary, false
	}
	if ops, err = buf.decode(binary, maxBatch); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return nil, binary, false
	}
	return ops, binary, true
}

var errEmptyBatch = errors.New("empty batch")

// decode decodes buf.body, a §2 frame when binary or else a JSON
// BatchRequest, and checks the batch holds 1 to maxBatch ops.
func (buf *BatchBuf) decode(binary bool, maxBatch int) ([]Op, error) {
	var ops []Op
	if binary {
		var err error
		if ops, err = DecodeBatchRequest(buf.body, buf.ops, maxBatch); err != nil {
			return nil, err
		}
		buf.ops = ops
	} else {
		var req BatchRequest
		dec := json.NewDecoder(bytes.NewReader(buf.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		ops = req.Ops
	}
	if len(ops) == 0 {
		return nil, errEmptyBatch
	}
	if len(ops) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", len(ops), maxBatch)
	}
	return ops, nil
}

// WriteBatch answers a batch with its results in the request's wire: a §4
// frame, built in buf, when binary, else a JSON BatchResponse. It returns
// the error of writing to the client; an encoding failure is answered
// with a 500.
func WriteBatch(w http.ResponseWriter, binary bool, results []OpResult, buf *BatchBuf) error {
	var body []byte
	var err error
	ct := ContentTypeBinary
	if binary {
		body, err = AppendBatchResponse(buf.out[:0], results)
		buf.out = body
	} else {
		ct = "application/json"
		body, err = json.Marshal(&BatchResponse{Results: results})
	}
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return nil
	}
	w.Header().Set("Content-Type", ct)
	_, err = w.Write(body)
	return err
}

// handleBatch serves one /v1/batch request in either wire. The body cap
// is already in place (srvkit.APIStack wraps this handler); the batch
// timeout runs from here, and serve enforces it.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	deadline := BatchDeadline(time.Now(), s.opt.BatchTimeout)
	scr := wirePool.Get().(*wireScratch)
	defer wirePool.Put(scr)
	ops, binary, ok := ReadBatch(w, r, &scr.BatchBuf, s.opt.MaxBatch)
	if !ok {
		return
	}
	rep := s.serve(r.Context(), deadline, r.Header.Get(IdempotencyKeyHeader), 0, ops, scr)
	if rep.status != http.StatusOK {
		http.Error(w, rep.msg, rep.status)
		return
	}
	if rep.replay {
		w.Header().Set("Idempotent-Replay", "true")
	}
	if err := WriteBatch(w, binary, rep.results, &scr.BatchBuf); err != nil && s.opt.Logger != nil {
		s.opt.Logger.Warn("batch: write", "err", err)
	}
}

// A batchReply is the node's answer to one batch, before any wire encoding.
type batchReply struct {
	status  int
	msg     string     // the refusal text, when status is not 200
	results []OpResult // the answer, when status is 200
	pos     uint64     // a WAL position covering a batch that writes (§7)
	replay  bool       // results come from the idempotency cache
}

// serve runs one decoded batch on this node: the one path behind both
// /v1/batch wires and every exchange. In order: an unpromoted follower
// that has applied fewer than minPos records refuses it (412); a batch
// that writes under a recorded key is answered from the record; the
// read-only gate refuses writes (503); the ops execute and log; a write
// waits for the replication ack; and the reply to a keyed write is
// recorded. The record is the §4 response frame, which answers a retry
// in whichever wire it comes: the replay is decoded and re-encoded, and
// the encoder is deterministic, so a binary retry gets the recorded
// bytes. Reads are never recorded: a retried read re-executes, which is
// as good as a replay. Set values decoded from a frame alias the pooled
// body in scr, which the next request overwrites; the backend copies what
// it keeps (see Backend).
//
// deadline (zero: none) bounds the batch. It is checked on the way in
// (after decode), after execution and before the reply, each a 503
// "batch timed out", and it ends the waits that can park — a WAL sync
// behind another batch's, and the replication ack — which end with ctx
// too. A batch that never parks makes no timer for it.
func (s *server) serve(ctx context.Context, deadline time.Time, key string, minPos uint64, ops []Op, scr *wireScratch) batchReply {
	if Expired(deadline) {
		return batchReply{status: http.StatusServiceUnavailable, msg: TimedOut}
	}
	if applied, ok := s.behind(minPos); ok {
		return batchReply{status: http.StatusPreconditionFailed,
			msg: fmt.Sprintf("replica behind: applied %d records, the batch needs %d", applied, minPos)}
	}
	writes := HasWrites(ops)
	if writes && key != "" {
		if frame, ok := s.idem.get(key); ok {
			// A retransmit of a batch already executed and acknowledged
			// (the ack was lost in flight). The position now is at or past
			// the one that covered it.
			s.opt.Metrics.idempotentReplay()
			results, err := DecodeBatchResponse(frame, scr.results, 0)
			if err != nil {
				return batchReply{status: http.StatusInternalServerError, msg: "replaying response: " + err.Error()}
			}
			scr.results = results
			return batchReply{status: http.StatusOK, results: results, pos: s.walPos(), replay: true}
		}
	}
	if writes && !s.opt.Writable.Get() {
		return batchReply{status: http.StatusServiceUnavailable, msg: s.readOnlyMsg()}
	}
	results, err := s.executeInto(ctx, deadline, ops, scr)
	if err != nil {
		// The batch was applied in memory but not made durable in time, or
		// could not be: refuse the ack. The client retries and either
		// lands on the read-only gate or re-executes idempotently.
		if waitEnded(err) {
			return batchReply{status: http.StatusServiceUnavailable, msg: walWaitMsg(err)}
		}
		return batchReply{status: http.StatusServiceUnavailable, msg: refusalMsg(err)}
	}
	if Expired(deadline) {
		return batchReply{status: http.StatusServiceUnavailable, msg: TimedOut}
	}
	if !writes {
		return batchReply{status: http.StatusOK, results: results}
	}
	// Read before the ack wait, which only ever lets the log grow.
	pos := s.walPos()
	if err := s.replAck(ctx, deadline); err != nil {
		return batchReply{status: http.StatusServiceUnavailable, msg: refusalMsg(err)}
	}
	if Expired(deadline) {
		return batchReply{status: http.StatusServiceUnavailable, msg: TimedOut}
	}
	if key != "" {
		frame, err := AppendBatchResponse(scr.out[:0], results)
		if err != nil {
			return batchReply{status: http.StatusInternalServerError, msg: "encoding response: " + err.Error()}
		}
		scr.out = frame
		s.idem.put(key, frame)
	}
	return batchReply{status: http.StatusOK, results: results, pos: pos}
}

// executeInto runs ops in request order, fusing maximal runs of
// consecutive gets (resp. sets) into one batched backend call so a
// homogeneous batch pays one lock acquisition per touched shard, not per
// cell. All working storage comes from scr; the returned results alias
// scr.results and are valid until scr is reused. When a WAL is configured,
// each applied set run (its successful cells) and each applied resize is
// logged and fsynced before executeInto returns; a non-nil walErr means
// the batch is not durable and the caller must not acknowledge it: the
// WAL failed (the server is now degraded), or a sync wait ended with ctx
// or at deadline (waitEnded; the records stay queued for the next sync).
func (s *server) executeInto(ctx context.Context, deadline time.Time, ops []Op, scr *wireScratch) (results []OpResult, walErr error) {
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
				var err error
				if scr.rec, err = s.opt.WAL.appendSet(ctx, deadline, scr.rec, acked); err != nil {
					if !waitEnded(err) {
						s.degrade(err)
					}
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
					rec := encodeResizeRecord(ops[i].Rows, ops[i].Cols)
					if err := s.opt.WAL.Enqueue(rec).Wait(ctx, deadline); err != nil {
						if !waitEnded(err) {
							s.degrade(err)
						}
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

// idemCache is a bounded FIFO map of Idempotency-Key → recorded §4
// response frame. Lookup-then-execute is not atomic, so two concurrent
// requests with the same key can both execute — acceptable, because batch
// ops are value-idempotent; the cache exists to keep *sequential* retries
// (the common lost-ack case) from re-executing and double-logging.
type idemCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	keys []string // in insertion order from next on, once full: a ring
	next int
}

func newIdemCache(size int) *idemCache {
	size = max(size, 1)
	return &idemCache{m: make(map[string][]byte, size), keys: make([]string, 0, size)}
}

func (c *idemCache) get(key string) (frame []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, ok = c.m[key]
	return frame, ok
}

// put records frame under key, evicting the oldest record when full. Key
// and frame may alias pooled scratch, so put copies both, into one
// allocation.
func (c *idemCache) put(key string, frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	buf := make([]byte, len(key)+len(frame))
	k := aliasString(buf[:copy(buf, key)])
	copy(buf[len(k):], frame)
	if len(c.keys) < cap(c.keys) {
		c.keys = append(c.keys, k)
	} else {
		delete(c.m, c.keys[c.next])
		c.keys[c.next] = k
		c.next = (c.next + 1) % len(c.keys)
	}
	c.m[k] = buf[len(k):]
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
