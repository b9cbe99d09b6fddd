package walog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pairfn/internal/walog"
)

// stateOpts returns Options with a sidecar next to the log, the
// configuration every replicated tabled WAL now runs with.
func stateOpts(path string) walog.Options {
	return walog.Options{StatePath: path + ".state"}
}

// TestBaseSurvivesCheckpointRestart is the renumbering bug the sidecar
// exists to fix: before it, a checkpointed log re-opened at base 0 and a
// follower tailing by sequence silently got the wrong records.
func TestBaseSurvivesCheckpointRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	var cut uint64
	if err := l.CheckpointSeq(func(c uint64) error { cut = c; return nil }); err != nil {
		t.Fatalf("CheckpointSeq: %v", err)
	}
	if cut != 5 {
		t.Fatalf("cut = %d, want 5", cut)
	}
	if err := l.Append([]byte("r5")); err != nil {
		t.Fatalf("Append after checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got, n := collect(t, path, stateOpts(path))
	defer l2.Close()
	if n != 1 || string(got[0]) != "r5" {
		t.Fatalf("replayed %d records %q, want just r5", n, got)
	}
	base, next := l2.SeqState()
	if base != 5 || next != 6 {
		t.Fatalf("SeqState = [%d, %d), want [5, 6)", base, next)
	}
}

// TestSnapshotSeqDiscardsStaleLog exercises the boot rule: a snapshot cut
// beyond the sidecar base means the log predates the snapshot (a
// checkpoint died between the snapshot write and the truncate) and must be
// discarded, not replayed.
func TestSnapshotSeqDiscardsStaleLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Boot as if a snapshot embedding cut 4 was written but the log was
	// never truncated: nothing replays, the base adopts the cut.
	opt := stateOpts(path)
	opt.SnapshotSeq = 4
	l2, got, n := collect(t, path, opt)
	if n != 0 || len(got) != 0 {
		t.Fatalf("replayed %d records from a log the snapshot subsumed", n)
	}
	base, next := l2.SeqState()
	if base != 4 || next != 4 {
		t.Fatalf("SeqState = [%d, %d), want [4, 4)", base, next)
	}
	if err := l2.Append([]byte("r4")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The discard itself was persisted: a plain re-open (snapshot seq
	// unchanged) keeps the adopted base and the one new record.
	l3, got, n := collect(t, path, opt)
	defer l3.Close()
	if n != 1 || string(got[0]) != "r4" {
		t.Fatalf("replayed %d records %q, want just r4", n, got)
	}
	if base, next := l3.SeqState(); base != 4 || next != 5 {
		t.Fatalf("SeqState = [%d, %d), want [4, 5)", base, next)
	}
}

// TestSetEpochDurable covers the promotion path: SetEpoch advances the
// epoch at the committed horizon, survives a restart, and refuses
// regressions.
func TestSetEpochDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	if e := l.Epoch(); e != 0 {
		t.Fatalf("fresh epoch = %d", e)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.SetEpoch(1); err != nil {
		t.Fatalf("SetEpoch(1): %v", err)
	}
	if err := l.SetEpoch(1); err == nil {
		t.Fatal("SetEpoch(1) twice succeeded")
	}
	if err := l.Append([]byte("r3")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := l.EpochAt(2); got != 0 {
		t.Fatalf("EpochAt(2) = %d, want 0 (pre-promotion record)", got)
	}
	if got := l.EpochAt(3); got != 1 {
		t.Fatalf("EpochAt(3) = %d, want 1", got)
	}
	if start, ok := l.EpochBarrier(0); !ok || start != 3 {
		t.Fatalf("EpochBarrier(0) = %d, %v; want 3, true", start, ok)
	}
	if _, ok := l.EpochBarrier(1); ok {
		t.Fatal("EpochBarrier(1) reported a barrier beyond the last epoch")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, _, _ := collect(t, path, stateOpts(path))
	defer l2.Close()
	if e := l2.Epoch(); e != 1 {
		t.Fatalf("epoch after restart = %d, want 1", e)
	}
	if got := l2.EpochAt(2); got != 0 {
		t.Fatalf("EpochAt(2) after restart = %d, want 0", got)
	}
}

// TestTailStopsAtEpochBoundary: a chunk never mixes records from two
// epochs, so the serving side can stamp one epoch per response.
func TestTailStopsAtEpochBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.SetEpoch(1); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append([]byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	frames, next, err := l.Tail(0, 1<<20)
	if err != nil {
		t.Fatalf("Tail(0): %v", err)
	}
	if next != 3 {
		t.Fatalf("Tail(0) next = %d, want 3 (epoch boundary)", next)
	}
	var payloads []string
	if _, err := walog.ReadStream(frames, func(p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	}); err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if len(payloads) != 3 || !strings.HasPrefix(payloads[0], "old-") {
		t.Fatalf("chunk = %v, want the 3 old-epoch records", payloads)
	}
	if _, next, err = l.Tail(3, 1<<20); err != nil || next != 5 {
		t.Fatalf("Tail(3) next = %d err = %v, want 5", next, err)
	}
}

// TestObserveEpoch covers the follower path: mirroring a source's boundary
// is durable and idempotent, and regressions are refused.
func TestObserveEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	for i := 0; i < 2; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.ObserveEpoch(3, 2); err != nil {
		t.Fatalf("ObserveEpoch(3, 2): %v", err)
	}
	if err := l.ObserveEpoch(3, 2); err != nil {
		t.Fatalf("ObserveEpoch same epoch again: %v", err)
	}
	if err := l.ObserveEpoch(2, 2); err == nil {
		t.Fatal("ObserveEpoch regression succeeded")
	}
	if err := l.ObserveEpoch(4, 99); err == nil {
		t.Fatal("ObserveEpoch with a start beyond the next append succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, _, _ := collect(t, path, stateOpts(path))
	defer l2.Close()
	if e := l2.Epoch(); e != 3 {
		t.Fatalf("epoch after restart = %d, want 3", e)
	}
}

// TestCutSyncsBeforeServing: the cut handed to save is the durable
// horizon covering every prior append, including appends enqueued but
// never waited on, which no fsync has covered yet.
func TestCutSyncsBeforeServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	defer l.Close()
	for i := 0; i < 4; i++ {
		l.Enqueue([]byte(fmt.Sprintf("r%d", i))) // enqueued, not yet durable
	}
	var cut, epoch uint64
	if err := l.Cut(func(c, e uint64) error { cut, epoch = c, e; return nil }); err != nil {
		t.Fatalf("Cut: %v", err)
	}
	if cut != 4 || epoch != 0 {
		t.Fatalf("Cut = (%d, %d), want (4, 0): the cut must cover unsynced appends", cut, epoch)
	}
	if _, next := l.SeqState(); next != 4 {
		t.Fatalf("committed = %d after Cut, want 4", next)
	}
}

// TestResetTo is the reseed install step: the log collapses to [seq, seq)
// under the given epoch, durably.
func TestResetTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	for i := 0; i < 6; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.ResetTo(40, 2); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if base, next := l.SeqState(); base != 40 || next != 40 {
		t.Fatalf("SeqState = [%d, %d), want [40, 40)", base, next)
	}
	if e := l.Epoch(); e != 2 {
		t.Fatalf("epoch = %d, want 2", e)
	}
	if err := l.Append([]byte("post-reset")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got, n := collect(t, path, stateOpts(path))
	defer l2.Close()
	if n != 1 || string(got[0]) != "post-reset" {
		t.Fatalf("replayed %d records %q, want just post-reset", n, got)
	}
	if base, _ := l2.SeqState(); base != 40 {
		t.Fatalf("base after restart = %d, want 40", base)
	}
	if e := l2.Epoch(); e != 2 {
		t.Fatalf("epoch after restart = %d, want 2", e)
	}
	if got := l2.EpochAt(40); got != 2 {
		t.Fatalf("EpochAt(40) = %d, want 2", got)
	}
}

// TestSnapshotEpochAdopted: a reseed that wrote the snapshot but died
// before ResetTo still boots into the snapshot's epoch (via
// SnapshotSeq+SnapshotEpoch), so the follower never pulls under a stale
// epoch after the crash.
func TestSnapshotEpochAdopted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	if err := l.Append([]byte("pre")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	opt := stateOpts(path)
	opt.SnapshotSeq = 10
	opt.SnapshotEpoch = 5
	l2, _, n := collect(t, path, opt)
	defer l2.Close()
	if n != 0 {
		t.Fatalf("replayed %d records past a newer snapshot", n)
	}
	if base, _ := l2.SeqState(); base != 10 {
		t.Fatalf("base = %d, want 10", base)
	}
	if e := l2.Epoch(); e != 5 {
		t.Fatalf("epoch = %d, want 5", e)
	}
}

// TestStateSidecarAbsentKeepsLegacyBehavior: without StatePath nothing is
// written next to the log and base restarts at zero (the wbc journal's
// contract).
func TestStateSidecarAbsentKeepsLegacyBehavior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	if err := l.Append([]byte("r0")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Checkpoint(func() error { return nil }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path + ".state"); !os.IsNotExist(err) {
		t.Fatalf("sidecar exists without StatePath (err=%v)", err)
	}
	l2, _, _ := collect(t, path, walog.Options{})
	defer l2.Close()
	if base, _ := l2.SeqState(); base != 0 {
		t.Fatalf("legacy base = %d, want 0", base)
	}
}

// TestCorruptSidecarFailsOpen: the sidecar is a checksummed state file, so
// every single-bit flip and every truncation of it makes Open fail rather
// than boot with a wrong base or wrong epoch marks.
func TestCorruptSidecarFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, stateOpts(path))
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.CheckpointSeq(func(uint64) error { return nil }); err != nil {
		t.Fatalf("CheckpointSeq: %v", err)
	}
	if err := l.SetEpoch(2); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	statePath := path + ".state"
	good, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	opens := func(b []byte) error {
		if err := os.WriteFile(statePath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, err := walog.Open(path, func([]byte) error { return nil }, stateOpts(path))
		if err == nil {
			l.Close()
		}
		return err
	}
	corrupt := append([]byte(nil), good...)
	for off := range corrupt {
		for bit := 0; bit < 8; bit++ {
			corrupt[off] ^= 1 << bit
			if opens(corrupt) == nil {
				t.Fatalf("offset %d bit %d: Open accepted a corrupt sidecar", off, bit)
			}
			corrupt[off] ^= 1 << bit
		}
	}
	for n := 0; n < len(good); n++ {
		if err := opens(good[:n]); err == nil || !strings.Contains(err.Error(), "state") {
			t.Fatalf("truncated to %d of %d bytes: Open err = %v", n, len(good), err)
		}
	}
	if err := opens(good); err != nil {
		t.Fatalf("intact sidecar: %v", err)
	}
	l2, _, _ := collect(t, path, stateOpts(path))
	defer l2.Close()
	if base, next := l2.SeqState(); base != 3 || next != 3 || l2.Epoch() != 2 {
		t.Fatalf("SeqState = [%d, %d) epoch %d, want [3, 3) epoch 2", base, next, l2.Epoch())
	}
}
