package walog

import (
	"errors"
	"fmt"
	"io"
	"os"

	"pairfn/internal/extarray"
)

// This file is the durable identity of the record stream: which sequence
// the log's first on-disk record carries (base survives restarts, so a
// checkpointed log does not renumber from zero), and which primary epoch
// each sequence range belongs to. Both live in a tiny CRC-framed sidecar
// next to the log (Options.StatePath, extarray.EncodeFramed), written
// atomically so it is either the old state or the new one, never torn.
//
// Epochs are the replication fencing primitive. Every promotion bumps the
// epoch and records the sequence it took effect at (an EpochMark); frames
// served to followers are tagged with the epoch of the records they carry,
// and a chunk never spans a mark. From the marks alone a source can answer
// "where does history after epoch E begin?" (EpochBarrier) — a follower
// still below that barrier after a promotion elsewhere holds only shared
// history and may keep tailing; one past it holds a fork and must reseed.
//
// The sidecar interacts with the caller's snapshot through one boot rule:
// if the snapshot the caller just loaded embeds a replication cut beyond
// the sidecar's base (Options.SnapshotSeq > base), the log's contents
// predate the snapshot and are discarded before replay, and the base
// becomes the snapshot cut. That single rule makes every checkpoint and
// reseed crash window converge: snapshot-then-truncate-then-persist can
// die between any two steps and the next boot still lands on exactly the
// snapshot state plus the surviving suffix.

// An EpochMark records that records [Start, …) were appended under Epoch,
// until the next mark. Marks are strictly increasing in Epoch and
// non-decreasing in Start.
type EpochMark struct {
	Epoch uint64
	Start uint64
}

// StreamState is the durable sidecar persisted at Options.StatePath.
type StreamState struct {
	Base  uint64
	Marks []EpochMark
}

// loadStreamState reads the sidecar; a missing file is the zero state
// (fresh log, or a log predating the sidecar — both start at base 0).
func loadStreamState(path string) (st StreamState, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	defer f.Close()
	if err := extarray.DecodeFramed(f, &st); err != nil {
		return st, fmt.Errorf("read %s: %w", path, err)
	}
	return st, nil
}

// persistStateLocked writes the sidecar atomically. Callers hold l.mu. A
// log opened without StatePath (e.g. the wbc journal) persists nothing and
// keeps the pre-sidecar behavior: base restarts at zero.
func (l *Log) persistStateLocked() error {
	if l.statePath == "" {
		return nil
	}
	return extarray.AtomicWriteFile(l.statePath, func(w io.Writer) error {
		return extarray.EncodeFramed(w, StreamState{Base: l.base, Marks: l.marks})
	})
}

// normalizeMarks enforces the mark invariants on a freshly loaded sidecar:
// epochs strictly increase, starts never decrease, and no mark points past
// the committed horizon (a mark written just before a crash that lost the
// tail is clamped back — the epoch claim survives, its start cannot exceed
// what exists). A snapshot carrying a newer epoch than any mark (a reseed
// that died before ResetTo ran) contributes a mark at base.
func normalizeMarks(marks []EpochMark, base, committed, snapEpoch uint64) []EpochMark {
	var (
		out          []EpochMark
		lastE, lastS uint64
	)
	for _, mk := range marks {
		if mk.Epoch <= lastE {
			continue
		}
		if mk.Start > committed {
			mk.Start = committed
		}
		if mk.Start < lastS {
			mk.Start = lastS
		}
		out = append(out, mk)
		lastE, lastS = mk.Epoch, mk.Start
	}
	if snapEpoch > lastE {
		s := base
		if s < lastS {
			s = lastS
		}
		out = append(out, EpochMark{Epoch: snapEpoch, Start: s})
	}
	return out
}

// epochLocked is the current epoch: the last mark's, or 0 for a log that
// has never seen a promotion.
func (l *Log) epochLocked() uint64 {
	if n := len(l.marks); n > 0 {
		return l.marks[n-1].Epoch
	}
	return 0
}

// Epoch returns the log's current epoch.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochLocked()
}

// EpochAt returns the epoch that record seq was (or will be) appended
// under: the last mark at or before seq.
func (l *Log) EpochAt(seq uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.marks) - 1; i >= 0; i-- {
		if l.marks[i].Start <= seq {
			return l.marks[i].Epoch
		}
	}
	return 0
}

// EpochBarrier reports where history newer than epoch `since` begins: the
// start of the earliest mark with a larger epoch. ok is false when no such
// mark exists. A puller at epoch `since` asking for records at or below
// the barrier is still inside shared history; one asking past it claims
// records from a fork this log fenced off.
func (l *Log) EpochBarrier(since uint64) (start uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, mk := range l.marks {
		if mk.Epoch > since {
			return mk.Start, true
		}
	}
	return 0, false
}

// SetEpoch durably advances the log's epoch to e — the promotion path. The
// mark lands at the committed horizon after a final sync, so everything
// appended before the promotion stays in the old epoch and everything
// after is in the new one. e must exceed the current epoch; the sidecar
// write happens before SetEpoch returns, so a promotion acknowledged to an
// operator survives any later crash.
func (l *Log) SetEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	cur := l.epochLocked()
	if e <= cur {
		return fmt.Errorf("%s: epoch %d does not advance current epoch %d", l.name, e, cur)
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.marks = append(l.marks, EpochMark{Epoch: e, Start: l.committed})
	if err := l.persistStateLocked(); err != nil {
		l.marks = l.marks[:len(l.marks)-1]
		return fmt.Errorf("%s: persist epoch: %w", l.name, err)
	}
	return nil
}

// ObserveEpoch mirrors a source's epoch boundary onto this log — the
// follower path: before applying the first chunk of a newer epoch, the
// follower records that its own records from `start` on belong to e. An
// equal epoch is a no-op; a smaller one is a regression and an error.
func (l *Log) ObserveEpoch(e, start uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	cur := l.epochLocked()
	if e == cur {
		return nil
	}
	if e < cur {
		return fmt.Errorf("%s: observed epoch %d below current epoch %d", l.name, e, cur)
	}
	if n := len(l.marks); n > 0 && start < l.marks[n-1].Start {
		return fmt.Errorf("%s: epoch %d start %d precedes prior mark at %d", l.name, e, start, l.marks[n-1].Start)
	}
	if next := l.base + uint64(len(l.offs)); start > next {
		return fmt.Errorf("%s: epoch %d start %d beyond next append %d", l.name, e, start, next)
	}
	l.marks = append(l.marks, EpochMark{Epoch: e, Start: start})
	if err := l.persistStateLocked(); err != nil {
		l.marks = l.marks[:len(l.marks)-1]
		return fmt.Errorf("%s: persist epoch: %w", l.name, err)
	}
	return nil
}

// Cut syncs the log and hands save the durable horizon and its epoch while
// appends are blocked — the snapshot-serving primitive. Unlike Checkpoint
// it does not truncate anything: a caller that also holds its own state
// lock inside save gets a snapshot that is exactly the effect of records
// [0, cut), with nothing in flight. The sync first is what makes the cut
// honest: without it the snapshot could embed records not yet durable
// here, and a crash would silently rewind history under a follower that
// already installed them.
func (l *Log) Cut(save func(cut, epoch uint64) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return save(l.committed, l.epochLocked())
}

// ResetTo discards every record and reseats the log at seq/epoch — the
// reseed install path, called after the caller has durably written a
// snapshot whose embedded cut is seq. The file is truncated, the sequence
// line collapses to [seq, seq), and the sidecar is rewritten, so the next
// append takes sequence seq under epoch.
func (l *Log) ResetTo(seq, epoch uint64) error {
	l.readMu.Lock()
	defer l.readMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		l.failed = fmt.Errorf("%s: reset truncate: %w", l.name, err)
		l.wakeCommittedLocked()
		return l.failed
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.failed = fmt.Errorf("%s: reset seek: %w", l.name, err)
		l.wakeCommittedLocked()
		return l.failed
	}
	l.size = 0
	l.synced = 0
	l.gen++
	l.base = seq
	l.offs = l.offs[:0]
	if epoch > 0 {
		l.marks = []EpochMark{{Epoch: epoch, Start: seq}}
	} else {
		l.marks = nil
	}
	if l.committed != seq {
		l.committed = seq
	}
	l.wakeCommittedLocked()
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.persistStateLocked(); err != nil {
		l.failed = fmt.Errorf("%s: reset persist: %w", l.name, err)
		return l.failed
	}
	if l.obs != nil {
		l.obs.LogSize(0)
	}
	return nil
}
