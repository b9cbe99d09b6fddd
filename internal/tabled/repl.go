package tabled

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/walog"
)

// This file is the server half of per-range WAL replication (DESIGN §5d):
// a primary serves its committed log suffix as raw CRC-framed bytes over
// persistent upgraded connections (docs/WIRE.md §8), a follower
// (follower.go) pulls and re-applies them, and an explicit promotion flips
// the follower writable when the primary dies.
//
// A pull's `from` does double duty: it names the next record the follower
// wants AND acknowledges that records [0, from) are durable on the
// follower (it only advances `from` after its own fsync). That one number
// is what makes semi-synchronous acks possible with a pull protocol: the
// primary's ReplGate watches the acknowledged horizon and holds each
// write's response until the horizon covers it.

// Replication endpoints, mounted by NewHandler when ServerOptions.Repl is
// set:
//
//	GET  /v1/repl/conn     upgrade to tabled-repl/1: back-to-back pulls (WIRE.md §8)
//	GET  /v1/repl/status   role / sequence line / lag (JSON)
//	POST /v1/promote       follower → primary transition

// ReplConnPath is the route that upgrades a follower's connection to the
// pull protocol.
const ReplConnPath = "/v1/repl/conn"

// ReplConnProtocol is the protocol token of ReplConnPath's HTTP/1.1
// Upgrade.
const ReplConnProtocol = "tabled-repl/1"

// ReplFramesPath is the path label pull exchanges are recorded under in
// the http_* metrics and the request log (method EXCHANGE). No HTTP route
// serves it.
const ReplFramesPath = "/v1/repl/frames"

// ReplStatusPath is the replication status endpoint.
const ReplStatusPath = "/v1/repl/status"

// PromotePath is the follower-promotion endpoint.
const PromotePath = "/v1/promote"

// DefaultReplWait is the long-poll window a follower asks for on each pull
// unless FollowerOptions.PollWait says otherwise.
const DefaultReplWait = 2 * time.Second

// maxReplWait caps the requested long-poll window so a follower cannot
// pin a connection's exchange indefinitely.
const maxReplWait = 30 * time.Second

// DefaultReplMaxBytes caps one pull's frames when the request names no
// cap (max 0).
const DefaultReplMaxBytes = 1 << 20

// maxReplMaxBytes caps the cap a pull may ask for.
const maxReplMaxBytes = 64 << 20

// ErrReplAckTimeout is the gate's refusal: the write is durable locally
// but the follower did not confirm it in time, so the ack is withheld
// (503) rather than risk acknowledging a write only the primary holds.
var ErrReplAckTimeout = errors.New("tabled: replication ack timeout")

// ReplStatus is the /v1/repl/status reply.
type ReplStatus struct {
	// Role is "primary" or "follower". A promoted follower reports
	// "primary".
	Role string `json:"role"`
	// Base and Next delimit the durable records still in the log:
	// [Base, Next). Records below Base were checkpointed into a snapshot.
	Base uint64 `json:"base"`
	Next uint64 `json:"next"`
	// Source is the primary this node replicates from (followers only).
	Source string `json:"source,omitempty"`
	// Applied is the follower's replication position (followers only).
	Applied uint64 `json:"applied,omitempty"`
	// Lag is the follower's record lag behind the primary's committed
	// horizon as of the last pull (followers only).
	Lag uint64 `json:"lag"`
	// Err is the follower's sticky replication failure, if any (e.g.
	// detected divergence).
	Err string `json:"error,omitempty"`
	// Epoch is the node's current primary epoch: 0 before any promotion,
	// bumped durably at each one. The router's checker compares epochs
	// across a range's members to fence a stale restarted primary.
	Epoch uint64 `json:"epoch"`
	// Fenced is true once this node has observed (from a requester) that
	// a newer primary epoch exists; FencedBy is that epoch. A fenced node
	// refuses writes until it is reseeded under the new primary.
	Fenced   bool   `json:"fenced,omitempty"`
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// Reseeds counts completed snapshot-transfer reseeds;
	// LastReseedUnix is the Unix time of the latest one (absent if
	// never). Together with Lag they let an operator tell "lagging" from
	// "stranded" from "freshly reseeded" without reading logs.
	Reseeds        uint64  `json:"reseeds,omitempty"`
	LastReseedUnix float64 `json:"last_reseed_unix,omitempty"`
}

// Repl is the replication face of one tabled server, carried into
// NewHandler via ServerOptions.Repl. WAL is required; Follower is set in
// follower mode; Gate is set on primaries that withhold write acks until
// the follower confirms (semi-synchronous replication).
type Repl struct {
	WAL      *WAL
	Follower *Follower
	Gate     *ReplGate
	Metrics  *Metrics
	Logger   *slog.Logger
	// Snap, when set, serves /v1/repl/snapshot — the reseed source for
	// followers stranded below the log base (see replsnap.go).
	Snap *ReplSnapshots
	// Fence, when set, is invoked (possibly more than once) when a
	// requester proves a newer primary epoch exists than this node's: the
	// server wires it to its degraded-mode trip so a stale restarted
	// primary stops acknowledging writes on its own, not just at the
	// router.
	Fence func(err error)

	fencedBy  atomic.Uint64
	promoteMu sync.Mutex
}

// selfFence records that a requester at epoch remote has proven a newer
// primary exists, tripping Fence on the first (or a higher) observation.
func (rp *Repl) selfFence(remote uint64) {
	for {
		cur := rp.fencedBy.Load()
		if remote <= cur {
			return
		}
		if rp.fencedBy.CompareAndSwap(cur, remote) {
			break
		}
	}
	err := fmt.Errorf("tabled: fenced: a primary at epoch %d exists beyond this node's epoch %d; reseed required",
		remote, rp.WAL.Epoch())
	rp.Metrics.replFenced()
	if rp.Logger != nil {
		rp.Logger.Error("repl: fenced by newer epoch", "remote_epoch", remote, "local_epoch", rp.WAL.Epoch())
	}
	if rp.Fence != nil {
		rp.Fence(err)
	}
}

// FencedBy reports the newest foreign epoch this node has been fenced by
// (ok false when never fenced).
func (rp *Repl) FencedBy() (epoch uint64, ok bool) {
	e := rp.fencedBy.Load()
	return e, e > 0
}

// Role reports the node's current replication role.
func (rp *Repl) Role() string {
	if rp.Follower != nil && !rp.Follower.Promoted() {
		return "follower"
	}
	return "primary"
}

// register mounts the replication endpoints on mux; pull exchanges are
// recorded on rt.
func (rp *Repl) register(mux *http.ServeMux, rt *obs.Route) {
	mux.HandleFunc("GET "+ReplConnPath, func(w http.ResponseWriter, r *http.Request) {
		rp.handleConn(w, r, rt)
	})
	mux.HandleFunc("GET "+ReplStatusPath, rp.handleStatus)
	mux.HandleFunc("POST "+PromotePath, rp.handlePromote)
	if rp.Snap != nil {
		mux.HandleFunc("GET "+ReplSnapshotPath, rp.Snap.handle)
	}
	// Baseline the epoch gauge at mount so a node that never promotes
	// still exports its (recovered) epoch.
	rp.Metrics.replEpoch(rp.WAL.Epoch())
}

// handleConn upgrades a follower's connection and serves its pulls, one
// exchange at a time, until the follower closes it, the idle deadline
// reaps it, or a drain stops it. A pull parked in its long-poll waits on
// the connection's context, so a drain answers it at once instead of
// waiting the poll out.
func (rp *Repl) handleConn(w http.ResponseWriter, r *http.Request, rt *obs.Route) {
	uc, err := srvkit.Upgrade(w, r, ReplConnProtocol)
	if err != nil {
		return // Upgrade answered the request
	}
	defer uc.Close()
	uc.Serve(func() bool { return rp.exchange(uc.Context(), uc.R, uc.W, rt, r.RemoteAddr) })
}

// A replReply is the answer to one pull (docs/WIRE.md §8): the status, the
// next sequence to ask for, the committed horizon, the epoch, and either
// the frames (200) or the refusal text.
type replReply struct {
	status          int
	next, committed uint64
	epoch           uint64
	frames          []byte
	msg             string
}

// exchange reads one pull request from br and writes its reply to bw
// (unflushed), recording it on rt. It reports false after an I/O error
// reading the request, when nothing is answered.
func (rp *Repl) exchange(ctx context.Context, br *bufio.Reader, bw *bufio.Writer, rt *obs.Route, remote string) bool {
	start := time.Now()
	var req [4]uint64 // from, epoch, wait_ms, max
	for i := range req {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return false
		}
		req[i] = v
	}
	wait := maxReplWait
	if ms := req[2]; ms < uint64(maxReplWait/time.Millisecond) {
		wait = time.Duration(ms) * time.Millisecond
	}
	maxBytes := DefaultReplMaxBytes
	if req[3] > 0 {
		maxBytes = int(min(req[3], maxReplMaxBytes))
	}
	rep := rp.pull(ctx, req[0], req[1], wait, maxBytes)
	fields := [3]uint64{rep.next, rep.committed, rep.epoch}
	n := writeReply(bw, rep.status, fields[:], rep.frames, rep.msg)
	rt.Observe(ctx, exchangeMethod, ReplFramesPath, remote, rep.status, int64(n), time.Since(start))
	return true
}

// pull answers one pull: the committed frames from sequence from on, after
// long-polling up to wait (or until ctx ends) while nothing past from is
// committed. from is also the follower's durability acknowledgement — it
// feeds the gate before anything else, so acks release even on pulls that
// then just long-poll. reqEpoch is the follower's epoch.
func (rp *Repl) pull(ctx context.Context, from, reqEpoch uint64, wait time.Duration, maxBytes int) replReply {
	// Every reply carries an epoch so the requester can tell a
	// reseedable condition (source ahead) from a fatal one (source
	// behind): on refusals the server's current epoch, on frames the
	// epoch of the records served.
	srcEpoch := rp.WAL.Epoch()
	refuse := func(status int, msg string) replReply {
		_, committed := rp.WAL.SeqState()
		return replReply{status: status, next: from, committed: committed, epoch: srcEpoch, msg: msg}
	}
	switch {
	case reqEpoch > srcEpoch:
		// The requester has seen a primary newer than us: WE are the
		// stale node. Fence ourselves (stop acking writes) and refuse —
		// serving frames from a fenced fork would propagate it.
		rp.selfFence(reqEpoch)
		return refuse(http.StatusConflict, fmt.Sprintf("tabled: source epoch %d behind requester epoch %d (fenced)",
			srcEpoch, reqEpoch))
	case reqEpoch < srcEpoch:
		// An old-epoch requester may still read shared history — records
		// up to where the first newer epoch began. Past that barrier its
		// log is a fork of ours and only a reseed reconciles it. Its
		// position is no semi-sync ack: an old-epoch straggler catching
		// up must not release write acks.
		if barrier, ok := rp.WAL.EpochBarrier(reqEpoch); ok && from > barrier {
			return refuse(http.StatusConflict, fmt.Sprintf("tabled: epoch %d history forked at %d, asked %d (reseed required)",
				reqEpoch, barrier, from))
		}
	default:
		rp.Gate.Advance(from)
	}
	// Long-poll until something past `from` is committed; "nothing new
	// before the window closed" is a success with no frames.
	if wait > 0 {
		wctx, cancel := context.WithTimeout(ctx, wait)
		rp.WAL.WaitCommitted(wctx, from+1)
		cancel()
	}
	frames, next, err := rp.WAL.Tail(from, maxBytes)
	switch {
	case errors.Is(err, walog.ErrSeqGap):
		// The records were checkpointed away; the follower must resync.
		return refuse(http.StatusGone, err.Error())
	case errors.Is(err, walog.ErrSeqAhead):
		// The follower knows records this log never wrote: divergence.
		return refuse(http.StatusConflict, err.Error())
	case err != nil:
		return refuse(http.StatusInternalServerError, err.Error())
	}
	_, committed := rp.WAL.SeqState()
	rp.Metrics.replServe(len(frames), int(next-from))
	// Tail never crosses an epoch mark, so one epoch describes the whole
	// chunk (for an empty chunk, the epoch the next record will carry).
	return replReply{status: http.StatusOK, next: next, committed: committed,
		epoch: rp.WAL.EpochAt(from), frames: frames}
}

// handleStatus reports the node's replication view — the checker reads it
// to distinguish a promoted follower from a plain read-only member.
func (rp *Repl) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := ReplStatus{Role: rp.Role(), Epoch: rp.WAL.Epoch()}
	st.Base, st.Next = rp.WAL.SeqState()
	if e, ok := rp.FencedBy(); ok {
		st.Fenced, st.FencedBy = true, e
	}
	if f := rp.Follower; f != nil {
		st.Source = f.Source()
		st.Applied = f.Applied()
		st.Lag = f.Lag()
		if err := f.Err(); err != nil {
			st.Err = err.Error()
		}
		st.Reseeds = f.Reseeds()
		if ts := f.LastReseed(); !ts.IsZero() {
			st.LastReseedUnix = float64(ts.UnixNano()) / 1e9
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&st)
}

// handlePromote performs the explicit follower → primary transition: stop
// pulling, flip writable, start owning the range. Idempotent — promoting
// a primary (or an already-promoted follower) answers 200 with role
// "primary" and does nothing.
func (rp *Repl) handlePromote(w http.ResponseWriter, r *http.Request) {
	rp.promoteMu.Lock()
	defer rp.promoteMu.Unlock()
	if rp.Follower == nil || rp.Follower.Promoted() {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"role":"primary","promoted":false,"epoch":%d}`+"\n", rp.WAL.Epoch())
		return
	}
	// Bump the epoch durably BEFORE flipping writable: the fencing
	// guarantee is that any write this node ever acknowledges as primary
	// is stamped with an epoch the old primary has never held. A failed
	// bump aborts the promotion — better an operator retry than an
	// unfenced primary.
	newEpoch := rp.WAL.Epoch() + 1
	if err := rp.WAL.SetEpoch(newEpoch); err != nil {
		http.Error(w, fmt.Sprintf("tabled: promote: epoch bump: %v", err), http.StatusInternalServerError)
		return
	}
	start := time.Now()
	applied := rp.Follower.Promote()
	d := time.Since(start)
	rp.Metrics.replPromotion(d)
	rp.Metrics.replEpoch(newEpoch)
	if rp.Logger != nil {
		rp.Logger.Info("repl: promoted to primary", "applied", applied, "epoch", newEpoch, "took", d)
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"role":"primary","promoted":true,"applied":%d,"epoch":%d,"promote_ms":%.3f}`+"\n",
		applied, newEpoch, float64(d)/float64(time.Millisecond))
}

// A ReplGate makes replication semi-synchronous: executeInto's caller
// parks each write batch here until the follower's acknowledged horizon
// (the `from` of its pulls) covers the batch's records, or the timeout
// passes and the ack is refused with a 503. The write stays durable
// locally either way — the gate narrows the failure window "acked on
// primary only" to requests that already got a 503, which clients treat
// as retryable. This is the CP choice: a dead follower stalls writes
// (bounded by Timeout) instead of silently widening the loss window.
type ReplGate struct {
	// Timeout bounds one ack wait (0 → DefaultReplAckTimeout).
	Timeout time.Duration

	mu    sync.Mutex
	acked uint64
	gen   chan struct{}
}

// DefaultReplAckTimeout bounds how long a write waits for follower
// confirmation before the ack is refused.
const DefaultReplAckTimeout = 2 * time.Second

// Advance records that the follower has durably applied records
// [0, seq), waking writes parked at or below that horizon. Regressions
// are ignored (a retried pull may re-present an older from).
func (g *ReplGate) Advance(seq uint64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if seq > g.acked {
		g.acked = seq
		if g.gen != nil {
			close(g.gen)
			g.gen = nil
		}
	}
	g.mu.Unlock()
}

// Acked returns the follower's confirmed horizon.
func (g *ReplGate) Acked() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acked
}

// Wait blocks until the follower confirms records [0, seq), the gate
// timeout passes (ErrReplAckTimeout), or ctx ends.
func (g *ReplGate) Wait(ctx context.Context, seq uint64) error {
	timeout := g.Timeout
	if timeout <= 0 {
		timeout = DefaultReplAckTimeout
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		g.mu.Lock()
		if g.acked >= seq {
			g.mu.Unlock()
			return nil
		}
		if g.gen == nil {
			g.gen = make(chan struct{})
		}
		gen := g.gen
		g.mu.Unlock()
		select {
		case <-gen:
		case <-deadline.C:
			return fmt.Errorf("%w: follower at %d, need %d after %v",
				ErrReplAckTimeout, g.Acked(), seq, timeout)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
