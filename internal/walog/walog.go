package walog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pairfn/internal/extarray"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("walog: log closed")

// File is the handle the log appends through. *os.File satisfies it; fault
// injectors (e.g. tabled.FaultInjector) wrap it to exercise torn writes
// and sync failures. Replay always reads the raw file.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// An Observer receives log instrumentation. All methods are called outside
// the caller's state locks but may be called under the log's own mutex, so
// implementations must be cheap and non-blocking (counter increments).
type Observer interface {
	// LogAppend reports one appended record of n framed bytes.
	LogAppend(n int64)
	// LogSync reports one fsync attempt and its latency.
	LogSync(d time.Duration, err error)
	// LogSize reports the current log length.
	LogSize(n int64)
	// LogReplay reports the boot-time replay outcome.
	LogReplay(records int, torn bool)
	// LogCheckpoint reports one checkpoint (log reset).
	LogCheckpoint()
}

// Options configures Open.
type Options struct {
	// Observer receives instrumentation (nil records nothing).
	Observer Observer
	// WrapFile, when non-nil, wraps the append-side file handle — the
	// fault-injection seam. Replay always reads the raw file.
	WrapFile func(File) File
	// Name prefixes error messages, e.g. "tabled: wal". Empty uses "walog".
	Name string
	// StatePath, when non-empty, names the durable StreamState sidecar
	// (see state.go): the log's base sequence and epoch marks survive
	// restarts, so checkpointed records keep their numbers across boots
	// and promotions are durable. Empty keeps the pre-sidecar behavior
	// (base restarts at zero; epochs unavailable).
	StatePath string
	// SnapshotSeq is the replication cut embedded in the snapshot the
	// caller just loaded (0 when none). When it is beyond the sidecar's
	// base, the log on disk predates the snapshot — its records are
	// already folded in — so Open discards the log before replay and
	// adopts SnapshotSeq as the base. This one rule resolves every
	// checkpoint/reseed crash window; see state.go.
	SnapshotSeq uint64
	// SnapshotEpoch is the epoch embedded in that snapshot; if newer than
	// every recorded mark it contributes a mark at the base (a reseed
	// that crashed between installing the snapshot and resetting the log
	// still comes up in the new epoch).
	SnapshotEpoch uint64
}

// A Log is an append-only, CRC-framed, fsync-before-ack record log. All
// methods are safe for concurrent use. A Log that hits an append or sync
// failure becomes sticky-failed: every later append returns the original
// error (see the package comment for the degraded-mode contract).
type Log struct {
	name string
	obs  Observer

	// readMu serializes Tail's file reads against truncation and Close:
	// Tail reads a committed byte region through rf outside mu (so
	// appends keep flowing during the disk read), which is only safe
	// while no checkpoint can cut the file under it and rf stays open.
	// Lock order: readMu before mu.
	readMu sync.RWMutex
	rf     *os.File // read-only handle on path, opened by Open, closed by Close

	mu     sync.Mutex
	f      File
	size   int64
	synced int64 // bytes known durable
	failed error
	closed bool

	// One fsync at a time runs with mu released (leadSyncLocked):
	// syncing is true while it does, and syncDone, on mu, wakes the
	// waiters parked behind it. gen counts truncations (CheckpointSeq,
	// ResetTo); a sync or Ticket from an older generation describes
	// bytes that no longer exist.
	syncing  bool
	syncDone *sync.Cond
	gen      uint64

	// Streaming state (see stream.go). base is the sequence number of the
	// first record in the file (records checkpointed away keep their
	// numbers); offs[k] is the byte offset of record base+k; committed is
	// the sequence just past the last durable record — the replication
	// horizon. commitGen, made only while a WaitCommitted long-poll is
	// parked, is closed and cleared whenever committed advances, waking
	// them.
	base      uint64
	offs      []int64
	committed uint64
	commitGen chan struct{}

	// frame holds the record being appended, header and payload, so it
	// goes to the file in one write; reused under mu.
	frame []byte

	// Durable stream identity (see state.go): statePath is the sidecar
	// file ("" disables persistence), marks the epoch history.
	statePath string
	marks     []EpochMark
}

// Open opens (creating if absent) the log at path, replays every intact
// record's payload through apply in log order, truncates any torn or
// corrupt tail, and returns the Log positioned for appends. Replayed
// records are exactly the durable records since the checkpoint the caller
// just loaded; a non-nil error from apply aborts the open.
func Open(path string, apply func(payload []byte) error, opt Options) (*Log, int, error) {
	name := opt.Name
	if name == "" {
		name = "walog"
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: open: %w", name, err)
	}
	st := StreamState{}
	if opt.StatePath != "" {
		if st, err = loadStreamState(opt.StatePath); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("%s: state: %w", name, err)
		}
	}
	base := st.Base
	if opt.SnapshotSeq > base {
		// The snapshot the caller just loaded cuts beyond this log's
		// base: every record here is already folded into it (a
		// checkpoint or reseed died between writing the snapshot and
		// resetting the log). Discard before replay — replaying would
		// double-apply and misnumber.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("%s: discard stale log: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("%s: sync discarded log: %w", name, err)
		}
		base = opt.SnapshotSeq
	}
	replayed := 0
	var (
		offs    []int64
		nextOff int64
	)
	valid, torn, err := extarray.ReadFrames(f, func(payload []byte) error {
		if err := apply(payload); err != nil {
			return err
		}
		offs = append(offs, nextOff)
		nextOff += extarray.FrameLen(payload)
		replayed++
		return nil
	})
	if err != nil {
		f.Close()
		return nil, replayed, fmt.Errorf("%s: replay %s: %w", name, path, err)
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, replayed, fmt.Errorf("%s: truncate torn tail: %w", name, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, replayed, fmt.Errorf("%s: seek: %w", name, err)
	}
	if torn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, replayed, fmt.Errorf("%s: sync after truncate: %w", name, err)
		}
	}
	// Make the log file's existence itself durable (first boot creates it).
	if err := extarray.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, replayed, err
	}
	rf, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, replayed, fmt.Errorf("%s: open for reads: %w", name, err)
	}
	var wf File = f
	if opt.WrapFile != nil {
		wf = opt.WrapFile(wf)
	}
	l := &Log{
		name:      name,
		obs:       opt.Observer,
		rf:        rf,
		f:         wf,
		size:      valid,
		synced:    valid,
		base:      base,
		offs:      offs,
		committed: base + uint64(len(offs)),
		statePath: opt.StatePath,
	}
	l.syncDone = sync.NewCond(&l.mu)
	l.marks = normalizeMarks(st.Marks, base, l.committed, opt.SnapshotEpoch)
	if opt.StatePath != "" {
		// Re-persist the normalized state so the boot-time resolution
		// (discard, clamp, snapshot epoch adoption) is itself durable.
		l.mu.Lock()
		err := l.persistStateLocked()
		l.mu.Unlock()
		if err != nil {
			f.Close()
			rf.Close()
			return nil, replayed, fmt.Errorf("%s: persist state: %w", name, err)
		}
	}
	if l.obs != nil {
		l.obs.LogReplay(replayed, torn)
		l.obs.LogSize(l.size)
	}
	return l, replayed, nil
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// A Ticket is one enqueued record's durability handle. The zero Ticket
// reports durable immediately — callers running without a log pass it
// through unconditionally.
type Ticket struct {
	l   *Log
	off int64  // log size just past this record
	gen uint64 // the log's truncation generation at enqueue
	err error  // enqueue-time failure (sticky error, closed log)
}

// Append frames payload into the log and waits for durability — Enqueue
// followed by Wait, for callers with no ordering constraint of their own.
func (l *Log) Append(payload []byte) error {
	return l.Enqueue(payload).Wait()
}

// Enqueue frames payload into the log, fixing its position in the record
// order, and returns a Ticket whose Wait blocks until the record is
// durable. Callers whose record order must match their state-mutation
// order call Enqueue while still holding their state lock (Enqueue never
// syncs, so it costs one buffered write) and Wait after releasing it.
func (l *Log) Enqueue(payload []byte) Ticket {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return Ticket{err: l.failed}
	}
	if l.closed {
		return Ticket{err: ErrClosed}
	}
	off := l.size
	var n int
	frame, err := extarray.EncodeFrame(l.frame[:0], payload)
	if err == nil {
		l.frame = frame
		n, err = l.f.Write(frame)
	}
	l.size += int64(n)
	if err != nil {
		// Bytes may be on disk (a torn frame); the next boot truncates it.
		// Any write failure is sticky: the log can no longer attest
		// durability, so the owner must stop acknowledging writes.
		l.failed = fmt.Errorf("%s: append: %w", l.name, err)
		l.wakeCommittedLocked()
		return Ticket{err: l.failed}
	}
	l.offs = append(l.offs, off)
	if l.obs != nil {
		l.obs.LogAppend(int64(n))
		l.obs.LogSize(l.size)
	}
	return Ticket{l: l, off: l.size, gen: l.gen}
}

// Wait blocks until the enqueued record is durable (or the log has
// failed). Because one fsync covers the whole file prefix, a Wait that
// finds a later sync already happened returns immediately. The first Wait
// to find no sync in flight leads one with the log's mutex released, so
// appends, tails and epoch reads are not held up by the disk; Waits
// arriving meanwhile park until it finishes and then either find their
// record covered or lead the next sync. That is group commit without a
// timer: concurrent appends share fsyncs whenever the disk is slower than
// they arrive.
func (t Ticket) Wait() error {
	if t.err != nil {
		return t.err
	}
	if t.l == nil {
		return nil // zero Ticket: no log configured
	}
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		switch {
		case l.failed != nil:
			return l.failed
		case t.gen != l.gen || t.off <= l.synced:
			// A sync covered the record, or a checkpoint truncated the log
			// after saving a snapshot that holds it.
			return nil
		case !l.syncing:
			return l.leadSyncLocked()
		}
		l.syncDone.Wait()
	}
}

// leadSyncLocked fsyncs with l.mu released and then marks durable what
// was written when it began. The caller holds l.mu with no sync in
// flight; leadSyncLocked returns with l.mu held.
func (l *Log) leadSyncLocked() error {
	size, next, gen := l.size, l.base+uint64(len(l.offs)), l.gen
	l.syncing = true
	l.mu.Unlock()
	start := time.Now()
	err := l.f.Sync()
	d := time.Since(start)
	l.mu.Lock()
	l.syncing = false
	l.syncDone.Broadcast()
	return l.syncedLocked(d, err, size, next, gen)
}

// syncLocked fsyncs while holding l.mu, after waiting out a sync in
// flight — for the paths whose next step must see nothing appended in
// between (checkpoint, cut, epoch bump, reset, close).
func (l *Log) syncLocked() error {
	l.waitSyncLocked()
	start := time.Now()
	err := l.f.Sync()
	return l.syncedLocked(time.Since(start), err, l.size, l.base+uint64(len(l.offs)), l.gen)
}

// waitSyncLocked parks until no sync runs outside l.mu, so the caller may
// truncate, close or sync the file itself.
func (l *Log) waitSyncLocked() {
	for l.syncing {
		l.syncDone.Wait()
	}
}

// syncedLocked records the outcome of a sync that began when the log was
// size bytes and next records long, in truncation generation gen. A
// failure is sticky. Success advances the durable size and the committed
// horizon — waking Tail long-polls — unless a truncation came between,
// which left both where it set them.
func (l *Log) syncedLocked(d time.Duration, err error, size int64, next, gen uint64) error {
	if l.obs != nil {
		l.obs.LogSync(d, err)
	}
	if err != nil && l.failed == nil {
		l.failed = fmt.Errorf("%s: sync: %w", l.name, err)
		l.wakeCommittedLocked()
	}
	if l.failed != nil {
		return l.failed
	}
	if gen != l.gen {
		return nil
	}
	if size > l.synced {
		l.synced = size
	}
	if next > l.committed {
		l.committed = next
		l.wakeCommittedLocked()
	}
	return nil
}

// wakeCommittedLocked closes commitGen, if a WaitCommitted loop made
// one, so every such loop re-checks the log state. Called when the
// committed horizon advances — and on failure or close, so long-polls
// observe the terminal state instead of sleeping until their context
// expires.
func (l *Log) wakeCommittedLocked() {
	if l.commitGen != nil {
		close(l.commitGen)
		l.commitGen = nil
	}
}

// Checkpoint runs save (which must persist a consistent snapshot of the
// state the log protects, e.g. via extarray.AtomicWriteFile) and then
// resets the log to empty: the snapshot now carries everything the log
// carried. Appends are blocked for the duration, which is what makes the
// cut airtight — a caller that also holds its own state lock across
// Checkpoint gets a snapshot no record can slip past. On a sticky-failed
// log the snapshot is still taken (it may be the last good persistence
// this process manages) but the log is left alone and the failure is
// returned.
func (l *Log) Checkpoint(save func() error) error {
	return l.CheckpointSeq(func(uint64) error { return save() })
}

// CheckpointSeq is Checkpoint with the cut sequence handed to save: the
// snapshot it writes should embed cut (and the current epoch) so the boot
// rule in Open can resolve a crash between the snapshot write and the
// truncation below. After a successful return the log's base is cut and
// the sidecar (when configured) records it, so record numbering survives
// the restart.
func (l *Log) CheckpointSeq(save func(cut uint64) error) error {
	// Exclude Tail's out-of-lock file reads for the truncation (lock
	// order: readMu before mu, matching Tail).
	l.readMu.Lock()
	defer l.readMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if err := save(l.base + uint64(len(l.offs))); err != nil {
		return err
	}
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		l.failed = fmt.Errorf("%s: checkpoint truncate: %w", l.name, err)
		l.wakeCommittedLocked()
		return l.failed
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.failed = fmt.Errorf("%s: checkpoint seek: %w", l.name, err)
		l.wakeCommittedLocked()
		return l.failed
	}
	l.size = 0
	l.synced = 0
	l.gen++
	// Checkpointed records keep their sequence numbers: the snapshot now
	// carries them, so the log's first record (if any ever lands) is the
	// next sequence. A follower tailing below the new base must resync
	// from a snapshot — Tail reports the gap instead of serving frames.
	l.base += uint64(len(l.offs))
	l.offs = l.offs[:0]
	// Epoch history before the cut is subsumed by the snapshot: only the
	// mark defining the current epoch still matters.
	if n := len(l.marks); n > 1 {
		l.marks = append(l.marks[:0], l.marks[n-1])
	}
	if l.committed != l.base {
		l.committed = l.base
		l.wakeCommittedLocked()
	}
	if l.obs != nil {
		l.obs.LogSize(0)
		l.obs.LogCheckpoint()
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	// Persist the advanced base after the truncate: a crash in between
	// leaves the old base on disk, which the snapshot's embedded cut
	// overrides at the next Open (SnapshotSeq > base discards nothing —
	// the log is already empty — and adopts the cut).
	if err := l.persistStateLocked(); err != nil {
		l.failed = fmt.Errorf("%s: checkpoint persist state: %w", l.name, err)
		l.wakeCommittedLocked()
		return l.failed
	}
	return nil
}

// Close syncs outstanding records and closes the file. Appends and Tails
// after Close return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.wakeCommittedLocked() // long-polls must observe the close, not time out
	var err error
	if l.failed == nil {
		err = l.syncLocked()
	} else {
		l.waitSyncLocked()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("%s: close: %w", l.name, cerr)
	}
	l.mu.Unlock()
	// Tails that saw the log open still read through rf (lock order:
	// readMu before mu, so it is taken after mu is released).
	l.readMu.Lock()
	l.rf.Close()
	l.readMu.Unlock()
	return err
}
