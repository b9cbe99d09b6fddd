package tabled

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/walog"
)

// A Follower is the pull side of per-range replication: it tails the
// primary's log over one persistent upgraded connection (ReplConnPath,
// docs/WIRE.md §8), and for every record of a pulled chunk (in primary log
// order) applies it to the local backend and re-appends the identical
// payload to the local WAL; one fsync covers the chunk before the
// position advances past it. The position is
// therefore never ahead of what a crash would recover — boot replay of
// the follower's own WAL is the position — and the `from` it presents on
// the next pull is an honest durability acknowledgement, which is what
// the primary's ReplGate builds semi-synchronous acks out of.
//
// A follower MAY checkpoint its own WAL: record numbering is absolute
// (the log's durable .state sidecar keeps the base sequence across
// truncations), so compaction never changes the position the follower
// presents. What it must never do is write records of its own — its log
// stays a byte-identical SUFFIX of the primary's stream.
//
// Divergence comes in two flavors. With no reseed capability (zero
// SnapshotPath/Restore), a primary answering 410 (our records were
// checkpointed away before we pulled them) or 409 (we hold records the
// primary never wrote) is a sticky failure: the loop stops, Err reports
// it, and /v1/repl/status carries it. With reseed configured, a 410 — or
// a 409 from a primary at a HIGHER epoch (our history forked at a
// failover we lost) — triggers an automatic rebuild from the primary's
// /v1/repl/snapshot (see reseed.go and DESIGN §5e). A 409 from a primary
// at our own epoch still sticks: same-epoch divergence means corruption
// or misconfiguration, and guessing is how split brains happen. An epoch
// REGRESSION (the source is behind us) always sticks — that source is a
// stale primary and must never be re-followed.

// FollowerOptions configures NewFollower.
type FollowerOptions struct {
	// Source is the primary's base URL, e.g. "http://10.0.0.7:8081".
	Source string
	// PollWait is the server-side long-poll window requested per pull
	// (0 → DefaultReplWait).
	PollWait time.Duration
	// Retry paces re-pulls after transient failures (nil → a default
	// unbounded-attempt policy; divergence is permanent regardless).
	Retry *retry.Policy
	// Writable is flipped true by Promote (may be nil).
	Writable *obs.Flag
	// Metrics receives repl_* instrumentation (may be nil).
	Metrics *Metrics
	// Logger receives pull-loop log lines (may be nil).
	Logger *slog.Logger
	// SnapshotPath and Restore together enable snapshot-transfer reseed
	// (reseed.go): when the source answers 410 (our next record was
	// checkpointed away) or 409 under a newer epoch (our log forked), the
	// follower fetches the source's snapshot, installs it at SnapshotPath,
	// resets its WAL to the snapshot's cut, and calls Restore to swap the
	// in-memory table. With either unset, those conditions stay sticky
	// failures, as before.
	SnapshotPath string
	Restore      func(*extarray.SnapshotData[string]) error
}

// NewFollower builds a follower resuming from applied — the record count
// the local WAL replayed at boot.
func NewFollower(b Backend[string], wal *WAL, applied uint64, opt FollowerOptions) *Follower {
	if opt.PollWait <= 0 {
		opt.PollWait = DefaultReplWait
	}
	if opt.Retry == nil {
		opt.Retry = &retry.Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second, MaxAttempts: -1}
	}
	f := &Follower{b: b, wal: wal, opt: opt, stopped: make(chan struct{})}
	f.applied.Store(applied)
	return f
}

// A Follower replicates one primary's WAL into a local backend + WAL.
// Safe for concurrent use; Run is the pull loop, everything else observes
// or stops it.
type Follower struct {
	b   Backend[string]
	wal *WAL
	opt FollowerOptions

	applied  atomic.Uint64 // records durably applied locally
	primNext atomic.Uint64 // primary's committed horizon at last pull
	promoted atomic.Bool

	reseeds    atomic.Uint64 // completed snapshot-transfer reseeds
	lastReseed atomic.Int64  // UnixNano of the latest reseed (0 = never)

	// installMu serializes a reseed install against any local persistence
	// the embedder runs (the follower's periodic checkpoint): a checkpoint
	// taken between ResetTo and Restore would snapshot a table that does
	// not match the WAL cut. Exposed via GuardInstall.
	installMu sync.Mutex

	// The pull connection and the buffer its replies are read into, used
	// by the Run goroutine alone.
	conn    *clientConn
	pullBuf []byte

	mu      sync.Mutex
	err     error              // sticky divergence/apply failure
	cancel  context.CancelFunc // cancels the running pull loop
	stopped chan struct{}      // closed when the pull loop exits
}

// Source returns the primary's base URL.
func (f *Follower) Source() string { return f.opt.Source }

// Applied returns the follower's durable replication position.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Lag returns the record lag behind the primary's committed horizon as
// of the last successful pull (0 while caught up or never connected).
func (f *Follower) Lag() uint64 {
	if n, a := f.primNext.Load(), f.applied.Load(); n > a {
		return n - a
	}
	return 0
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Reseeds returns how many snapshot-transfer reseeds have completed.
func (f *Follower) Reseeds() uint64 { return f.reseeds.Load() }

// LastReseed returns when the latest reseed completed (zero if never).
func (f *Follower) LastReseed() time.Time {
	ns := f.lastReseed.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// GuardInstall runs fn while holding the reseed install lock, so local
// persistence (the follower's periodic checkpoint) never interleaves with
// a snapshot install's WAL-reset/restore window.
func (f *Follower) GuardInstall(fn func() error) error {
	f.installMu.Lock()
	defer f.installMu.Unlock()
	return fn()
}

// reseedCapable reports whether the options allow snapshot reseed.
func (f *Follower) reseedCapable() bool {
	return f.opt.SnapshotPath != "" && f.opt.Restore != nil
}

// Err returns the sticky replication failure, if any.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// fail records the sticky failure and stops the loop.
func (f *Follower) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	if f.opt.Logger != nil {
		f.opt.Logger.Error("repl: follower stopped", "source", f.opt.Source, "err", err)
	}
}

// Run pulls until ctx ends, Promote is called, or a permanent failure
// (divergence, local apply/append failure) sticks. Wire it as a
// srvkit.Lifecycle background task.
func (f *Follower) Run(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	f.mu.Lock()
	if f.promoted.Load() {
		f.mu.Unlock()
		cancel()
		return
	}
	f.cancel = cancel
	f.mu.Unlock()
	defer close(f.stopped)
	defer cancel()
	defer func() { f.conn.close() }()
	err := f.opt.Retry.Do(ctx, func(ctx context.Context) error {
		for {
			if err := f.pullOnce(ctx); err != nil {
				var rn *reseedNeeded
				if errors.As(err, &rn) {
					// The source told us tailing cannot resume from our
					// position (checkpointed past or epoch fork). Rebuild
					// from its snapshot instead of sticking.
					if rerr := f.reseed(ctx, rn); rerr != nil {
						return rerr
					}
					continue
				}
				return err // transient → backoff + retry; permanent → stop
			}
			// A successful pull resets the backoff by returning into a
			// fresh Do call — cheaper to just loop here and let only
			// errors escape to the retry schedule.
		}
	})
	if err != nil && ctx.Err() == nil {
		f.fail(err)
	}
}

// pullOnce performs one pull exchange and applies whatever it returns.
// A nil error means progress (possibly zero new records after a quiet
// long-poll); transient transport trouble comes back plain (retryable);
// divergence and local failures come back retry.Permanent.
func (f *Follower) pullOnce(ctx context.Context) error {
	from := f.applied.Load()
	localEpoch := f.wal.Epoch()
	rep, err := f.exchange(ctx, from, localEpoch)
	if err != nil {
		return err // the connection is broken: the next pull redials
	}
	f.opt.Metrics.replPull(rep.status)
	// An epoch behind ours means the source was never promoted past our
	// history — we are talking to a stale ex-primary (or a misrouted
	// node). Applying its frames would adopt a fenced fork; fail closed.
	// (On a 200 the reply carries the served chunk's epoch, but a chunk
	// at our position can never be older than our own epoch's start.)
	if rep.epoch < localEpoch {
		return retry.Permanent(fmt.Errorf(
			"tabled: epoch regression: source %s at epoch %d is behind local epoch %d",
			f.opt.Source, rep.epoch, localEpoch))
	}
	switch rep.status {
	case http.StatusOK:
	case http.StatusGone:
		// Our next record was checkpointed away on the source. The log
		// suffix is gone, but a snapshot reseed rebuilds us from the
		// source's checkpoint — same bytes, new base.
		if f.reseedCapable() {
			return &reseedNeeded{reason: fmt.Sprintf("source checkpointed past %d (%s): %s",
				from, statusText(rep.status), rep.msg)}
		}
		return retry.Permanent(fmt.Errorf("tabled: follower diverged from %s (%s): %s",
			f.opt.Source, statusText(rep.status), rep.msg))
	case http.StatusConflict:
		if rep.epoch > localEpoch && f.reseedCapable() {
			// The source is on a newer epoch and our log forked from its
			// history (the classic ex-primary rejoin). The source is
			// authoritative; our unshared suffix was never ack'd under the
			// new epoch, so discarding it via reseed is the correct move.
			return &reseedNeeded{reason: fmt.Sprintf("history forked at epoch %d (%s): %s",
				rep.epoch, statusText(rep.status), rep.msg)}
		}
		// Same-epoch conflict: we hold records the source never wrote,
		// with no promotion to explain it. That is true divergence —
		// reseeding would silently discard locally-durable records.
		return retry.Permanent(fmt.Errorf("tabled: follower diverged from %s (%s): %s",
			f.opt.Source, statusText(rep.status), rep.msg))
	default:
		return fmt.Errorf("tabled: repl pull: %s: %s", statusText(rep.status), rep.msg)
	}
	f.primNext.Store(rep.committed)
	if rep.epoch > localEpoch {
		// The chunk we are about to apply was written under a newer
		// primary epoch; record the transition durably before applying so
		// a restart presents the right epoch on its first pull.
		if err := f.wal.ObserveEpoch(rep.epoch, from); err != nil {
			return retry.Permanent(fmt.Errorf("tabled: repl epoch adopt: %w", err))
		}
		f.opt.Metrics.replEpoch(rep.epoch)
	}
	// Primary order: apply each record to memory, then log it; one fsync
	// then covers the whole chunk. A crash before it replays these
	// records from the next pull (the position only advances once they
	// are durable), and re-applying is idempotent.
	var last walog.Ticket
	n, err := walog.ReadStream(rep.frames, func(payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return retry.Permanent(fmt.Errorf("tabled: repl apply: %w", err))
		}
		if err := ApplyWALRecord(f.b, rec); err != nil {
			return retry.Permanent(err)
		}
		last = f.wal.Enqueue(payload)
		return nil
	})
	if n > 0 {
		if werr := last.Wait(context.Background(), time.Time{}); werr != nil {
			return retry.Permanent(fmt.Errorf("tabled: repl append: %w", werr))
		}
		f.applied.Add(uint64(n))
	}
	f.opt.Metrics.replApplied(n, f.Lag())
	if err != nil {
		// A stream torn mid-frame (a ReadStream error without Permanent)
		// is a transport fault: records before the tear are applied and
		// position-advanced, so a plain retry on a fresh connection
		// resumes exactly after them.
		f.conn.close()
		return err
	}
	return nil
}

// statusText renders a refusal status the way net/http would, e.g.
// "410 Gone".
func statusText(code int) string {
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// replReplySlack is how long past the requested long-poll window the
// follower waits for a reply before it gives the connection up as dead.
const replReplySlack = 10 * time.Second

// maxPullReply bounds a 200 pull reply's frames. The primary caps them
// at DefaultReplMaxBytes except when a single record is larger, so it
// allows one max-size frame of slack.
const maxPullReply = DefaultReplMaxBytes + extarray.MaxFramePayload + 16

// exchange sends one pull request on the follower's connection, dialing
// one if it has none or it broke, and reads the reply (docs/WIRE.md §8).
// Its frames alias the follower's pull buffer until the next exchange. Any
// error leaves the connection broken.
func (f *Follower) exchange(ctx context.Context, from, epoch uint64) (rep replReply, err error) {
	if f.conn == nil || f.conn.broken {
		if f.conn, err = dialUpgrade(ctx, f.opt.Source, ReplConnPath, ReplConnProtocol); err != nil {
			return rep, err
		}
	}
	f.conn.c.SetDeadline(time.Now().Add(f.opt.PollWait + replReplySlack))
	var req [4 * binary.MaxVarintLen64]byte
	var hdr [3]uint64 // next, committed, epoch
	pull := appendPullRequest(req[:0], from, epoch, f.opt.PollWait, DefaultReplMaxBytes)
	status, body, _, err := f.conn.roundTrip(ctx, pull, hdr[:], maxPullReply, f.pullBuf)
	if body != nil {
		f.pullBuf = body
	}
	if err != nil {
		return rep, fmt.Errorf("tabled: repl pull from %s: %w", f.opt.Source, err)
	}
	rep = replReply{status: status, next: hdr[0], committed: hdr[1], epoch: hdr[2]}
	if status == http.StatusOK {
		rep.frames = body
	} else {
		rep.msg = string(body)
	}
	return rep, nil
}

// appendPullRequest appends one pull request: the next record wanted (and
// the durable horizon it acknowledges), the follower's epoch, the
// long-poll window in milliseconds, and the frame byte cap.
func appendPullRequest(dst []byte, from, epoch uint64, wait time.Duration, maxBytes int) []byte {
	dst = binary.AppendUvarint(dst, from)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(wait/time.Millisecond))
	return binary.AppendUvarint(dst, uint64(maxBytes))
}

// Promote executes the follower → primary transition: stop the pull
// loop, wait for it to exit (no frame is mid-apply past this point),
// flip the writable flag, and return the final applied position. After
// Promote the node serves writes and its own pulls — a new follower can
// chain from it. Idempotent.
func (f *Follower) Promote() (applied uint64) {
	f.mu.Lock()
	already := f.promoted.Swap(true)
	cancel := f.cancel
	f.mu.Unlock()
	if already {
		return f.applied.Load()
	}
	if cancel != nil {
		cancel()
		<-f.stopped
	}
	if f.opt.Writable != nil {
		f.opt.Writable.Set(true)
	}
	return f.applied.Load()
}
