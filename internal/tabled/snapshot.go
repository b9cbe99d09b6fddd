package tabled

import (
	"fmt"
	"io"
	"os"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
)

// SaveAt serializes the table in the extarray snapshot format (one wire
// format for the whole repo: an extarray.Array can load a tabled snapshot
// under the same mapping), stamped with the replication cut: the table
// state being written is exactly the effect of WAL records [0, seq) under
// primary epoch. A node without a WAL saves at cut (0, 0). The caller
// (typically inside walog.CheckpointSeq or walog.Cut, which block appends)
// is responsible for seq actually being the cut of the state snapshotted
// here. All shard read locks are held for the duration, so the snapshot
// is a consistent cut; writers queue behind it like behind a reshape.
func (s *Sharded[T]) SaveAt(w io.Writer, seq, epoch uint64) error {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.RUnlock()
		}
	}()
	snap := extarray.SnapshotData[T]{
		Mapping:   s.f.Name(),
		Rows:      s.rows,
		Cols:      s.cols,
		Stats:     s.stats(true),
		ReplSeq:   seq,
		ReplEpoch: epoch,
	}
	n := s.lenLocked()
	snap.Addrs, snap.Values = make([]int64, 0, n), make([]T, 0, n)
	s.scan(func(addr int64, v T) {
		snap.Addrs = append(snap.Addrs, addr)
		snap.Values = append(snap.Values, v)
	})
	return extarray.EncodeSnapshot(w, &snap)
}

// SaveFileAt atomically persists the table to path (temp file + fsync +
// rename via extarray.AtomicWriteFile), with the replication cut stamped
// in (see SaveAt): the previous snapshot survives any failure or crash
// mid-write.
func (s *Sharded[T]) SaveFileAt(path string, seq, epoch uint64) error {
	return extarray.AtomicWriteFile(path, func(w io.Writer) error { return s.SaveAt(w, seq, epoch) })
}

// LoadShardedMeta reconstructs a Sharded table from a snapshot written by
// SaveAt (or by extarray's Array.Save) and returns the replication cut
// stamped into it: the table is the effect of WAL records [0, seq) under
// primary epoch — the numbers the caller hands to walog.Open
// (SnapshotSeq/SnapshotEpoch) so the boot rule can resolve checkpoint and
// reseed crash windows. The caller supplies the same storage mapping
// (checked by name) and the shard geometry; every address is validated to
// decode into the snapshot's logical box before it is trusted.
func LoadShardedMeta[T any](r io.Reader, f core.StorageMapping, nshards int, newStore func() extarray.Store[T], m *Metrics) (_ *Sharded[T], seq, epoch uint64, _ error) {
	snap, err := extarray.DecodeSnapshot[T](r)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("tabled: load: %w", err)
	}
	s, err := NewSharded[T](f, nshards, newStore, 0, 0, m)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := s.RestoreSnapshot(snap); err != nil {
		return nil, 0, 0, err
	}
	return s, snap.ReplSeq, snap.ReplEpoch, nil
}

// LoadShardedFileMeta is LoadShardedMeta over a file written by SaveFileAt.
func LoadShardedFileMeta[T any](path string, f core.StorageMapping, nshards int, newStore func() extarray.Store[T], m *Metrics) (*Sharded[T], uint64, uint64, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.Close()
	return LoadShardedMeta[T](r, f, nshards, newStore, m)
}

// RestoreSnapshot replaces the table's entire contents with snap — the
// reseed install step, running against a live table under every shard
// write lock so concurrent readers see either the old state or the new
// one, never a mix. The snapshot's mapping and every address are validated
// before any lock is taken; a validation failure leaves the table
// untouched.
func (s *Sharded[T]) RestoreSnapshot(snap *extarray.SnapshotData[T]) error {
	if snap.Mapping != s.f.Name() {
		return fmt.Errorf("tabled: restore: snapshot was laid out by %q, not %q",
			snap.Mapping, s.f.Name())
	}
	for _, addr := range snap.Addrs {
		if _, _, err := extarray.CheckSnapshotAddr(snap, s.f, addr); err != nil {
			return fmt.Errorf("tabled: restore: %w", err)
		}
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		s.shards[i].store = s.newStore()
		s.shards[i].footprint = 0
	}
	for i, addr := range snap.Addrs {
		sh := s.shardOf(addr)
		sh.store.Set(s.local(addr), snap.Values[i])
		sh.footprint = max(sh.footprint, addr)
	}
	s.rows, s.cols = snap.Rows, snap.Cols
	s.reshapes, s.moves = snap.Stats.Reshapes, snap.Stats.Moves
	return nil
}
