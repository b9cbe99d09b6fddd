package walog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"pairfn/internal/extarray"
)

// This file is the replication surface of the log: a primary serves its
// committed (durable) record suffix to followers as raw CRC-framed bytes,
// and a follower ingests them through the same frame reader the boot
// replay uses. Records are numbered by a monotone sequence that survives
// checkpoints: the log file holds records [base, base+len(offs)), of
// which [base, committed) are durable. Only committed records are ever
// served — a frame a follower applies is by construction one the primary
// acknowledged (or will acknowledge: fsynced, pre-ack).
//
// Divergence is detected from the sequence line alone:
//
//   - a follower asking below base hit a checkpoint cut on the primary —
//     the records it needs now live only in the primary's snapshot
//     (ErrSeqGap; the follower must resync from a snapshot, or the
//     operator rebuilds it);
//   - a follower asking past committed claims records the primary never
//     durably wrote — the primary lost its log (or was swapped), and the
//     follower must not trust it (ErrSeqAhead).
//
// Both are permanent conditions for the puller, never retried blindly.

// ErrSeqGap reports a Tail request below the log's base sequence: the
// requested records were checkpointed into a snapshot and are no longer
// in the log.
var ErrSeqGap = errors.New("walog: sequence below log base (checkpointed; resync required)")

// ErrSeqAhead reports a Tail request past the committed horizon by more
// than the long-poll allowance: the requester knows records this log
// never durably wrote, so the two histories have diverged.
var ErrSeqAhead = errors.New("walog: sequence ahead of committed horizon (diverged histories)")

// SeqState reports the log's sequence line: records [base, next) exist
// durably — base is the first record still in the file (earlier ones were
// checkpointed into a snapshot), next is the sequence the next committed
// record will take.
func (l *Log) SeqState() (base, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.committed
}

// WaitCommitted blocks until the committed horizon reaches seq (i.e. at
// least seq records are durable), ctx ends, or the log fails or closes.
// It is the long-poll primitive: a frames endpoint waits here briefly
// before answering "nothing new" so followers track the primary at
// round-trip latency instead of poll-interval latency.
func (l *Log) WaitCommitted(ctx context.Context, seq uint64) error {
	for {
		l.mu.Lock()
		switch {
		case l.committed >= seq:
			l.mu.Unlock()
			return nil
		case l.failed != nil:
			err := l.failed
			l.mu.Unlock()
			return err
		case l.closed:
			l.mu.Unlock()
			return ErrClosed
		}
		if l.commitGen == nil {
			l.commitGen = make(chan struct{})
		}
		gen := l.commitGen
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gen:
		}
	}
}

// Tail returns the committed records [from, n) as raw CRC-framed bytes —
// exactly the on-disk representation, so serving them is a bounded file
// read and ingesting them reuses the frame reader's CRC/torn-tail
// machinery. n ≤ committed is chosen so the chunk stays within maxBytes
// (at least one record is returned when any is committed, so a single
// oversized record still ships). next is the sequence to ask for on the
// following call; next == from means nothing new was committed.
//
// Errors: ErrSeqGap when from < base (checkpointed away), ErrSeqAhead
// when from > committed (diverged), ErrClosed after Close, and real read
// failures.
func (l *Log) Tail(from uint64, maxBytes int) (frames []byte, next uint64, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	// Lock order: readMu before mu (Checkpoint matches). Holding the read
	// side across the file read keeps the committed byte region immutable
	// without stalling appends.
	l.readMu.RLock()
	defer l.readMu.RUnlock()

	l.mu.Lock()
	base, committed := l.base, l.committed
	switch {
	case l.closed:
		l.mu.Unlock()
		return nil, from, ErrClosed
	case from < base:
		l.mu.Unlock()
		return nil, from, fmt.Errorf("%w: asked %d, log base %d", ErrSeqGap, from, base)
	case from > committed:
		l.mu.Unlock()
		return nil, from, fmt.Errorf("%w: asked %d, committed %d", ErrSeqAhead, from, committed)
	case from == committed:
		l.mu.Unlock()
		return nil, from, nil
	}
	// A chunk never spans an epoch mark: every record it carries belongs
	// to one epoch (EpochAt(from)), so the server can tag the response
	// with a single epoch and a follower observes boundaries exactly at
	// chunk starts. limit ≥ from+1 always (marks strictly beyond from),
	// so progress is never stalled by a boundary.
	limit := committed
	for _, mk := range l.marks {
		if mk.Start > from && mk.Start < limit {
			limit = mk.Start
		}
	}
	start := l.offs[from-base]
	next = from
	end := start
	for next < limit {
		var recEnd int64
		if k := next - base + 1; k < uint64(len(l.offs)) {
			recEnd = l.offs[k]
		} else {
			recEnd = l.synced
		}
		if next > from && recEnd-start > int64(maxBytes) {
			break
		}
		end, next = recEnd, next+1
	}
	l.mu.Unlock()

	// Read the region through the read-only handle: the append handle's
	// position belongs to the writer, and replay-side reads never go
	// through the fault-injection wrapper. Truncation happens in place
	// (under readMu, excluded here), so the handle stays valid.
	buf := make([]byte, end-start)
	if _, err := l.rf.ReadAt(buf, start); err != nil && err != io.EOF {
		return nil, from, fmt.Errorf("%s: tail read [%d, %d): %w", l.name, start, end, err)
	}
	return buf, next, nil
}

// ReadStream parses a Tail chunk (or any concatenation of frames),
// invoking fn once per record in order. Unlike a log file, a byte stream
// between processes has no legitimate torn tail: truncation or corruption
// anywhere is an error, and fn is never called past it. It returns the
// number of records delivered to fn, which is also safe to add to the
// follower's applied sequence when err is nil.
func ReadStream(frames []byte, fn func(payload []byte) error) (n int, err error) {
	valid, torn, err := extarray.ReadFrames(bytes.NewReader(frames), func(payload []byte) error {
		if err := fn(payload); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if torn || valid != int64(len(frames)) {
		return n, fmt.Errorf("walog: truncated or corrupt frame stream at byte %d of %d", valid, len(frames))
	}
	return n, nil
}
