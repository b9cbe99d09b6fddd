package walog_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/walog"
)

// pullAll drives one follower catch-up loop: Tail from the follower's
// position in maxBytes chunks, ingesting every record into the follower
// log, until the primary has nothing new. Returns the records pulled.
func pullAll(t *testing.T, primary, follower *walog.Log, maxBytes int) int {
	t.Helper()
	total := 0
	for {
		_, from := follower.SeqState()
		frames, next, err := primary.Tail(from, maxBytes)
		if err != nil {
			t.Fatalf("Tail(%d): %v", from, err)
		}
		if next == from {
			return total
		}
		n, err := walog.ReadStream(frames, follower.Append)
		if err != nil {
			t.Fatalf("ReadStream: %v", err)
		}
		if uint64(n) != next-from {
			t.Fatalf("ReadStream delivered %d records, Tail promised %d", n, next-from)
		}
		total += n
	}
}

// TestStreamReplicatesByteIdentical quick-checks the replication
// invariant: a follower built purely from Tail chunks — across random
// record sizes, random chunk limits, and a mid-stream follower restart —
// ends with a WAL byte-identical to the primary's and the same sequence
// line. Byte identity is the strongest form of "replays to the same
// state": both logs replay through the same frame reader.
func TestStreamReplicatesByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ppath := filepath.Join(dir, "primary")
			fpath := filepath.Join(dir, "follower")
			primary, _, _ := collect(t, ppath, walog.Options{})
			defer primary.Close()
			follower, _, _ := collect(t, fpath, walog.Options{})

			records := 0
			for round := 0; round < 6; round++ {
				// A burst of appends with adversarial sizes: empty, tiny, and
				// multi-KB records all frame and stream identically.
				for i, n := 0, 1+rng.Intn(40); i < n; i++ {
					p := make([]byte, rng.Intn(4096))
					rng.Read(p)
					if err := primary.Append(p); err != nil {
						t.Fatal(err)
					}
					records++
				}
				pullAll(t, primary, follower, 1+rng.Intn(8192))

				if round == 3 {
					// Follower restart mid-stream: its boot replay count IS its
					// replication position, so it resumes with no handshake.
					if err := follower.Close(); err != nil {
						t.Fatal(err)
					}
					var replayed int
					follower, _, replayed = collect(t, fpath, walog.Options{})
					if _, next := follower.SeqState(); uint64(replayed) != next {
						t.Fatalf("restart: replayed %d records but SeqState next = %d", replayed, next)
					}
				}
			}
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}

			_, pnext := primary.SeqState()
			if pnext != uint64(records) {
				t.Fatalf("primary committed %d, appended %d", pnext, records)
			}
			pb, err := os.ReadFile(ppath)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := os.ReadFile(fpath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, fb) {
				t.Fatalf("follower file differs from primary: %d vs %d bytes", len(fb), len(pb))
			}
		})
	}
}

// TestTailChunkBounds: maxBytes bounds a chunk except that one oversized
// record still ships alone — a follower with a small budget must never
// deadlock on a big record.
func TestTailChunkBounds(t *testing.T) {
	l, _, _ := collect(t, filepath.Join(t.TempDir(), "log"), walog.Options{})
	defer l.Close()
	big := make([]byte, 10_000)
	for i := 0; i < 3; i++ {
		if err := l.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	frames, next, err := l.Tail(0, 100) // budget far below one record
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 {
		t.Fatalf("oversized-record Tail advanced to %d, want exactly 1", next)
	}
	if len(frames) < len(big) {
		t.Fatalf("oversized-record Tail returned %d bytes", len(frames))
	}
	if _, next, _ = l.Tail(0, 1<<20); next != 3 {
		t.Fatalf("ample-budget Tail advanced to %d, want 3", next)
	}
}

// TestTailSequenceErrors: asking below base (after a checkpoint truncated
// the log) is ErrSeqGap; asking past the committed horizon is ErrSeqAhead.
// Both must be typed — the follower treats them as permanent.
func TestTailSequenceErrors(t *testing.T) {
	l, _, _ := collect(t, filepath.Join(t.TempDir(), "log"), walog.Options{})
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.Tail(9, 0); !errors.Is(err, walog.ErrSeqAhead) {
		t.Fatalf("Tail(9) err = %v, want ErrSeqAhead", err)
	}

	if err := l.Checkpoint(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if base, next := l.SeqState(); base != 4 || next != 4 {
		t.Fatalf("post-checkpoint SeqState = [%d, %d), want [4, 4)", base, next)
	}
	if _, _, err := l.Tail(2, 0); !errors.Is(err, walog.ErrSeqGap) {
		t.Fatalf("Tail(2) after checkpoint err = %v, want ErrSeqGap", err)
	}

	// The sequence keeps climbing across the checkpoint: new records are
	// servable from the new base.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	frames, next, err := l.Tail(4, 0)
	if err != nil || next != 5 {
		t.Fatalf("Tail(4) = next %d, %v", next, err)
	}
	if n, err := walog.ReadStream(frames, func(p []byte) error {
		if string(p) != "after" {
			return fmt.Errorf("payload %q", p)
		}
		return nil
	}); n != 1 || err != nil {
		t.Fatalf("ReadStream = %d, %v", n, err)
	}
}

// TestReadStreamTornMidStream: a frame stream cut mid-record (a torn HTTP
// body) must deliver every record before the tear, then error — never
// silently succeed, never call fn past the damage.
func TestReadStreamTornMidStream(t *testing.T) {
	l, _, _ := collect(t, filepath.Join(t.TempDir(), "log"), walog.Options{})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := l.Tail(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	torn := frames[:len(frames)-13] // cut inside the final record
	n, err := walog.ReadStream(torn, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("torn stream: ReadStream returned nil error")
	}
	if n != 4 {
		t.Fatalf("torn stream delivered %d records, want the 4 intact ones", n)
	}

	// Corruption (bit flip inside a payload) fails the CRC the same way.
	flipped := append([]byte(nil), frames...)
	flipped[len(flipped)-5] ^= 0xFF
	if _, err := walog.ReadStream(flipped, func([]byte) error { return nil }); err == nil {
		t.Fatal("corrupt stream: ReadStream returned nil error")
	}

	// fn's own error propagates and stops the stream.
	boom := errors.New("boom")
	n, err = walog.ReadStream(frames, func(p []byte) error {
		if p[0] == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 2 {
		t.Fatalf("fn error: n=%d err=%v", n, err)
	}
}

// TestWaitWritten covers the long-poll primitive: wake on a write — not
// on its sync, which is held parked here — honor ctx, and fail out when
// the log closes.
func TestWaitWritten(t *testing.T) {
	l, pf := openParked(t)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.WaitWritten(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("empty-log wait err = %v", err)
	}

	pf.armed.Store(true) // any fsync from here on parks
	done := make(chan error, 1)
	go func() { done <- l.WaitWritten(context.Background(), 1) }()
	time.Sleep(10 * time.Millisecond)
	x := l.Enqueue([]byte("x"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait after the write: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitWritten did not wake on Enqueue")
	}
	if _, next := l.SeqState(); next != 0 {
		t.Fatalf("durable horizon = %d before any sync, want 0", next)
	}
	if err := l.WaitWritten(context.Background(), 1); err != nil {
		t.Fatalf("already-written wait: %v", err)
	}
	pf.armed.Store(false)
	if err := x.Wait(context.Background(), time.Time{}); err != nil {
		t.Fatal(err)
	}

	go func() { done <- l.WaitWritten(context.Background(), 99) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, walog.ErrClosed) {
			t.Fatalf("wait across close err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitWritten did not wake on close")
	}
}

// TestFailedLogServesDurableOnly: once a sync fails, the log serves
// nothing past its durable horizon — the records written behind the
// failed sync may be lost by the next boot — and asking within the written
// range is an empty answer, not divergence.
func TestFailedLogServesDurableOnly(t *testing.T) {
	var ff *flakyFile
	l, _, _ := collect(t, filepath.Join(t.TempDir(), "log"), walog.Options{
		WrapFile: func(f walog.File) walog.File { ff = &flakyFile{File: f}; return ff },
	})
	defer l.Close()
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	b := l.Enqueue([]byte("b"))
	l.Enqueue([]byte("c"))
	if frames, next, err := l.Tail(0, 0); err != nil || next != 3 || len(frames) == 0 {
		t.Fatalf("healthy Tail(0) = %d bytes, next %d, %v; want 3 records", len(frames), next, err)
	}
	ff.failSync.Store(true)
	if err := b.Wait(context.Background(), time.Time{}); !errors.Is(err, errInjected) {
		t.Fatalf("Wait = %v, want the injected fault", err)
	}
	frames, next, err := l.Tail(0, 0)
	if err != nil || next != 1 {
		t.Fatalf("failed Tail(0) = next %d, %v; want 1", next, err)
	}
	var got []string
	walog.ReadStream(frames, func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("failed Tail(0) records = %q, want [a]", got)
	}
	for _, from := range []uint64{1, 2, 3} {
		if frames, next, err := l.Tail(from, 0); err != nil || next != from || len(frames) != 0 {
			t.Fatalf("failed Tail(%d) = %d bytes, next %d, %v; want nothing", from, len(frames), next, err)
		}
	}
	if _, _, err := l.Tail(4, 0); !errors.Is(err, walog.ErrSeqAhead) {
		t.Fatalf("Tail(4) err = %v, want ErrSeqAhead", err)
	}
}

// syncObserver counts the fsyncs a log reports.
type syncObserver struct{ syncs atomic.Int64 }

func (o *syncObserver) LogAppend(int64)              {}
func (o *syncObserver) LogSync(time.Duration, error) { o.syncs.Add(1) }
func (o *syncObserver) LogSize(int64)                {}
func (o *syncObserver) LogReplay(int, bool)          {}
func (o *syncObserver) LogCheckpoint()               {}

// TestOpenSyncsReplayedLog: Open makes what it replayed durable with one
// fsync before it counts those records committed — a killed process can
// leave written, never-synced records in the page cache — and reports
// that fsync.
func TestOpenSyncsReplayedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	defer l.Close()
	for i := 0; i < 3; i++ {
		l.Enqueue([]byte{byte(i)}) // written, never waited on
	}
	if _, next := l.SeqState(); next != 0 {
		t.Fatalf("durable horizon = %d before any sync, want 0", next)
	}
	// Reopen with the first handle still open, as a boot after a kill
	// finds the file.
	obs := new(syncObserver)
	l2, _, n := collect(t, path, walog.Options{Observer: obs})
	defer l2.Close()
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
	if got := obs.syncs.Load(); got != 1 {
		t.Fatalf("Open reported %d fsyncs, want 1", got)
	}
	if _, next := l2.SeqState(); next != 3 {
		t.Fatalf("durable horizon after Open = %d, want 3", next)
	}
}
