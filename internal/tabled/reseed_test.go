package tabled

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
)

// startSnapPrimary builds a primary that also serves /v1/repl/snapshot —
// the reseed source. The spool lives in dir next to the WAL.
func startSnapPrimary(t *testing.T, dir string, fi *FaultInjector) *replNode {
	t.Helper()
	return startReplNode(t, dir+"/primary.wal", func(n *replNode) ServerOptions {
		n.repl = &Repl{WAL: n.wal, Snap: &ReplSnapshots{
			WAL:      n.wal,
			Save:     n.b.SaveAt,
			Dir:      dir,
			Injector: fi,
		}}
		return ServerOptions{WAL: n.wal, Repl: n.repl}
	})
}

// startReseedFollower builds a reseed-capable follower of source (its own
// snapshot path and restore hook) that can itself serve reseeds once
// promoted, and runs its pull loop until the test ends.
func startReseedFollower(t *testing.T, dir, source string, m *Metrics) (*replNode, *Follower) {
	t.Helper()
	var f *Follower
	writable := obs.NewFlag(false)
	n := startReplNode(t, dir+"/follower.wal", func(n *replNode) ServerOptions {
		_, next := n.wal.SeqState()
		f = NewFollower(n.b, n.wal, next, FollowerOptions{
			Source:       source,
			PollWait:     50 * time.Millisecond,
			Writable:     writable,
			Retry:        &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
			SnapshotPath: dir + "/follower.gob",
			Restore:      n.b.RestoreSnapshot,
			Metrics:      m,
		})
		n.repl = &Repl{WAL: n.wal, Follower: f, Snap: &ReplSnapshots{
			WAL:  n.wal,
			Save: n.b.SaveAt,
			Dir:  dir,
		}}
		return ServerOptions{WAL: n.wal, Writable: writable, Repl: n.repl}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return n, f
}

func fillPrimary(t *testing.T, p *replNode, round, n int) {
	t.Helper()
	client := &Client{Base: p.srv.URL}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Op: "set",
			X: int64(i%16 + 1), Y: int64(i/16%16 + 1),
			V: fmt.Sprintf("r%d-%d", round, i)})
	}
	if _, err := client.Batch(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
}

// TestReseedStrandedFollower is the tentpole's happy path: a fresh
// follower whose position the primary has checkpointed away (410) rebuilds
// itself from /v1/repl/snapshot without operator help, then resumes
// tailing — and its WAL suffix is byte-identical to the primary's.
func TestReseedStrandedFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := startSnapPrimary(t, pdir, nil)
	fillPrimary(t, primary, 0, 40)

	// Checkpoint past 0: a follower asking from 0 is unservable from the
	// log alone, which without reseed was a sticky divergence.
	if err := primary.wal.CheckpointSeq(func(cut uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	base, _ := primary.wal.SeqState()
	if base == 0 {
		t.Fatal("checkpoint did not advance the base")
	}

	follower, f := startReseedFollower(t, fdir, primary.srv.URL, nil)
	waitCaughtUp(t, primary, f)
	want := tableState(t, primary.b)
	if got := tableState(t, follower.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reseed state: %d cells vs %d", len(got), len(want))
	}
	if f.Reseeds() != 1 {
		t.Fatalf("reseeds = %d, want 1", f.Reseeds())
	}

	// The installed snapshot file is the bytes the primary served, and a
	// fresh boot from it has the same cells and cut.
	resp, err := http.Get(primary.srv.URL + ReplSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	installed, err := os.ReadFile(fdir + "/follower.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(installed, served) {
		t.Fatalf("installed snapshot (%d bytes) differs from the served one (%d bytes)", len(installed), len(served))
	}
	booted, seq, epoch, err := LoadShardedFileMeta[string](fdir+"/follower.gob", core.SquareShell{}, 4, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != base || epoch != 0 {
		t.Fatalf("booted cut (seq %d, epoch %d), want (%d, 0)", seq, epoch, base)
	}
	if got := tableState(t, booted); !reflect.DeepEqual(got, want) {
		t.Fatalf("booted from the installed snapshot: %d cells vs %d", len(got), len(want))
	}

	// Tailing must keep working after the install: new primary writes
	// arrive through the ordinary frame pull.
	fillPrimary(t, primary, 1, 25)
	waitCaughtUp(t, primary, f)
	if got, want := tableState(t, follower.b), tableState(t, primary.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reseed tail: %d cells vs %d", len(got), len(want))
	}

	// The follower's log is a byte-identical suffix of the primary's.
	pFrames, pNext, err := primary.wal.Tail(base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fFrames, fNext, err := follower.wal.Tail(base, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pNext != fNext || !reflect.DeepEqual(pFrames, fFrames) {
		t.Fatalf("suffix mismatch: primary [%d,%d) %d bytes, follower [%d,%d) %d bytes",
			base, pNext, len(pFrames), base, fNext, len(fFrames))
	}

	// /v1/repl/status reports the reseed.
	var st ReplStatus
	getJSON(t, follower.srv.URL+ReplStatusPath, &st)
	if st.Reseeds != 1 || st.LastReseedUnix == 0 {
		t.Fatalf("status reseeds = %d, last = %v", st.Reseeds, st.LastReseedUnix)
	}
}

// TestReseedCorruptTransferFailsClosed: with every snapshot response
// corrupted in flight, the follower must refuse to install anything (CRC
// frames fail closed) and keep retrying; once the fault clears, the next
// attempt heals it.
func TestReseedCorruptTransferFailsClosed(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	fi := NewFaultInjector(&Faults{Seed: 7, SnapCorruptRate: 1})
	primary := startSnapPrimary(t, pdir, fi)
	fillPrimary(t, primary, 0, 40)
	if err := primary.wal.CheckpointSeq(func(cut uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg, 4)
	_, f := startReseedFollower(t, fdir, primary.srv.URL, m)

	// Wait until at least two reseed attempts have failed on the corrupt
	// stream; the loop must stay alive (no sticky error) and must not
	// have installed anything.
	deadline := time.Now().Add(10 * time.Second)
	for m.replReseedsErr.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("reseed failures = %d, follower err = %v", m.replReseedsErr.Value(), f.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("corrupt transfer turned sticky: %v", err)
	}
	if f.Reseeds() != 0 || f.Applied() != 0 {
		t.Fatalf("corrupt bytes installed: reseeds=%d applied=%d", f.Reseeds(), f.Applied())
	}
	if _, err := os.Stat(fdir + "/follower.gob"); !os.IsNotExist(err) {
		t.Fatalf("corrupt transfer wrote a snapshot file (stat err = %v)", err)
	}

	// Clear the fault: the very next attempt must succeed.
	fi.in.mu.Lock()
	fi.in.fc.SnapCorruptRate = 0
	fi.in.mu.Unlock()
	waitCaughtUp(t, primary, f)
	if f.Reseeds() != 1 {
		t.Fatalf("reseeds after heal = %d, want 1", f.Reseeds())
	}
}

// TestReseedFencedForkedPrimary is the split-brain repair: a primary that
// kept accepting writes after its follower was promoted holds a forked
// history under a stale epoch. Re-pointed at the new primary, it must
// discard its fork via reseed (409 + higher source epoch), converge to
// the new primary's state, and adopt its epoch.
func TestReseedFencedForkedPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := startSnapPrimary(t, pdir, nil)
	follower, f := startReseedFollower(t, fdir, primary.srv.URL, nil)

	fillPrimary(t, primary, 0, 30)
	waitCaughtUp(t, primary, f)

	// Failover: the follower is promoted (epoch 0 → 1)...
	presp, err := http.Post(follower.srv.URL+PromotePath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if follower.wal.Epoch() != 1 {
		t.Fatalf("promoted epoch = %d", follower.wal.Epoch())
	}
	// ...but the old primary missed the memo and keeps taking writes:
	// its history forks from the promoted node's.
	fillPrimary(t, primary, 1, 10)
	fillPrimary(t, follower, 2, 20)

	// The old primary comes back as a follower of the new one. Its
	// position is past the new primary's epoch-0 barrier, so the source
	// answers 409 at a higher epoch — reseed, not stickiness.
	_, next := primary.wal.SeqState()
	m2 := NewMetrics(obs.NewRegistry(), 4)
	f2 := NewFollower(primary.b, primary.wal, next, FollowerOptions{
		Source:       follower.srv.URL,
		PollWait:     50 * time.Millisecond,
		Retry:        &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
		SnapshotPath: pdir + "/primary.gob",
		Restore:      primary.b.RestoreSnapshot,
		Metrics:      m2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f2.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	// waitCaughtUp is useless here: the forked position is numerically
	// ahead of the new primary's horizon until the reseed rewinds it.
	deadline := time.Now().Add(5 * time.Second)
	for f2.Reseeds() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fork never reseeded (err=%v)", f2.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCaughtUp(t, follower, f2)
	if got, want := tableState(t, primary.b), tableState(t, follower.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("fork not repaired: %d cells vs %d", len(got), len(want))
	}
	if e := primary.wal.Epoch(); e != 1 {
		t.Fatalf("reseeded epoch = %d, want 1", e)
	}
	// The epoch gauge must track the adoption, not just the status JSON.
	if g := m2.replEpochG.Value(); g != 1 {
		t.Fatalf("tabled_repl_epoch gauge = %d after reseed, want 1", g)
	}

	// And the repaired node keeps tailing the new primary.
	fillPrimary(t, follower, 3, 10)
	waitCaughtUp(t, follower, f2)
	if got, want := tableState(t, primary.b), tableState(t, follower.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair tail: %d cells vs %d", len(got), len(want))
	}
}

// TestEpochRegressionSticky: a follower that has seen epoch 2 must never
// re-follow an epoch-0 source, reseed capability or not — that source is
// a stale primary. The refusal is sticky, and the contacted source fences
// itself (it just learned a newer epoch exists).
func TestEpochRegressionSticky(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := startSnapPrimary(t, pdir, nil)
	fillPrimary(t, primary, 0, 5)

	b := newWALBackend(t, 16, 16)
	w, _ := openWALInto(t, fdir+"/follower.wal", b, WALOptions{})
	defer w.Close()
	if err := w.SetEpoch(2); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(b, w, 0, FollowerOptions{
		Source:       primary.srv.URL,
		PollWait:     20 * time.Millisecond,
		Retry:        &retry.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: -1},
		SnapshotPath: fdir + "/follower.gob",
		Restore:      b.RestoreSnapshot,
	})
	done := make(chan struct{})
	go func() { defer close(done); f.Run(context.Background()) }()
	t.Cleanup(func() { f.Promote(); <-done })
	waitSticky(t, f)
	if err := f.Err(); !strings.Contains(err.Error(), "epoch regression") {
		t.Fatalf("sticky err = %v", err)
	}
	// The stale source self-fenced on contact: it now refuses writes.
	if e, ok := primary.repl.FencedBy(); !ok || e != 2 {
		t.Fatalf("source FencedBy = %d, %v", e, ok)
	}
}

// TestReseedInstallCrash simulates a crash in the worst window — the new
// snapshot file is installed but the WAL was never reset — and proves the
// boot rule repairs it: the stale log is discarded, the node boots into
// exactly the snapshot state at its stamped cut and epoch.
func TestReseedInstallCrash(t *testing.T) {
	dir := t.TempDir()

	// The "new" snapshot: 12 records applied, checkpointed at cut 12
	// under epoch 3.
	donor := newWALBackend(t, 16, 16)
	for i := 0; i < 12; i++ {
		if err := donor.Set(int64(i+1), 1, fmt.Sprintf("new-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snapPath := dir + "/table.gob"
	if err := donor.SaveFileAt(snapPath, 12, 3); err != nil {
		t.Fatal(err)
	}

	// The stale local log: 4 old epoch-0 records the snapshot supersedes.
	walPath, statePath := dir+"/table.wal", dir+"/table.wal.state"
	{
		b := newWALBackend(t, 16, 16)
		w, _ := openWALInto(t, walPath, b, WALOptions{StatePath: statePath})
		for i := 0; i < 4; i++ {
			if err := w.AppendSet([]Cell[string]{{X: 1, Y: 1, V: fmt.Sprintf("old-%d", i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Boot exactly as tabledserver does: snapshot meta first, then the
	// WAL with the snapshot's stamp. The snapshot is newer than the log's
	// base, so the log must be discarded, not replayed.
	sh, seq, epoch, err := LoadShardedFileMeta[string](snapPath, donor.Mapping(), 4, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12 || epoch != 3 {
		t.Fatalf("snapshot meta = (seq %d, epoch %d)", seq, epoch)
	}
	w, replayed := openWALInto(t, walPath, sh, WALOptions{
		StatePath: statePath, SnapshotSeq: seq, SnapshotEpoch: epoch,
	})
	defer w.Close()
	if replayed != 0 {
		t.Fatalf("stale log replayed %d records over the newer snapshot", replayed)
	}
	base, next := w.SeqState()
	if base != 12 || next != 12 || w.Epoch() != 3 {
		t.Fatalf("booted at [%d,%d) epoch %d, want [12,12) epoch 3", base, next, w.Epoch())
	}
	if got, want := tableState(t, sh), tableState(t, donor); !reflect.DeepEqual(got, want) {
		t.Fatalf("booted state: %d cells vs %d", len(got), len(want))
	}
}

// TestReseedSourceRecutMidTransfer: if the source re-checkpoints between
// resume attempts, the stale partial spool must be thrown away and the
// transfer restarted against the new sequence — never stitched.
func TestReseedSourceRecutMidTransfer(t *testing.T) {
	oldBody := []byte("old-spool-contents-0123456789")
	newBody := []byte("NEW-SPOOL")
	requests := 0
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		if requests == 1 {
			// First attempt: seq 5, but the connection dies mid-body.
			w.Header().Set(ReplSnapshotSeqHeader, "5")
			w.Header().Set(ReplEpochHeader, "1")
			w.Header().Set(ReplSnapshotSizeHeader, strconv.Itoa(len(oldBody)))
			w.Header().Set("Content-Length", strconv.Itoa(len(oldBody)))
			w.Write(oldBody[:10])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		// The resume request arrives pinned to seq 5 — but we re-cut.
		if q := r.URL.Query(); q.Get("seq") != "5" || q.Get("offset") != "10" {
			t.Errorf("resume query = %q, want seq=5&offset=10", r.URL.RawQuery)
		}
		w.Header().Set(ReplSnapshotSeqHeader, "9")
		w.Header().Set(ReplEpochHeader, "2")
		w.Header().Set(ReplSnapshotSizeHeader, strconv.Itoa(len(newBody)))
		w.Write(newBody)
	}))
	defer src.Close()

	f := NewFollower(newWALBackend(t, 4, 4), nil, 0, FollowerOptions{Source: src.URL})
	body, seq, epoch, err := f.fetchSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || epoch != 2 || string(body) != string(newBody) {
		t.Fatalf("fetched (seq %d, epoch %d, %q), want (9, 2, %q)", seq, epoch, body, newBody)
	}
}

// TestReseedDuringPrimaryCheckpoint: a primary that checkpoints (and so
// rebuilds its spool) while a follower is reseeding still produces a
// consistent follower — whichever spool generation the transfer lands on,
// tailing from its cut converges.
func TestReseedDuringPrimaryCheckpoint(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := startSnapPrimary(t, pdir, nil)
	fillPrimary(t, primary, 0, 40)
	if err := primary.wal.CheckpointSeq(func(cut uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}

	follower, f := startReseedFollower(t, fdir, primary.srv.URL, nil)

	// Race more writes and a second checkpoint against the reseed.
	fillPrimary(t, primary, 1, 30)
	if err := primary.wal.CheckpointSeq(func(cut uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	fillPrimary(t, primary, 2, 10)

	waitCaughtUp(t, primary, f)
	if got, want := tableState(t, follower.b), tableState(t, primary.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after racing checkpoint: %d cells vs %d", len(got), len(want))
	}
	if f.Err() != nil {
		t.Fatalf("follower err = %v", f.Err())
	}
}
