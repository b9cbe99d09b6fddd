package walog_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/walog"
)

// collect opens the log at path with an apply that records every payload,
// returning the payloads, the replay count, and the open log.
func collect(t *testing.T, path string, opt walog.Options) (*walog.Log, [][]byte, int) {
	t.Helper()
	var got [][]byte
	l, n, err := walog.Open(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got, n
}

// writeCounter counts the Write calls a log makes on its file.
type writeCounter struct {
	walog.File
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.File.Write(p)
}

// TestOneWritePerRecord: each record, frame header and payload together,
// reaches the file in exactly one Write, so a record costs one write(2)
// and the records still replay whole.
func TestOneWritePerRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	wc := new(writeCounter)
	l, _, _ := collect(t, path, walog.Options{
		WrapFile: func(f walog.File) walog.File { wc.File = f; return wc },
	})
	const records = 20
	for i := 0; i < records; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte(i)}, 10*i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if got := wc.writes.Load(); got != int64(i+1) {
			t.Fatalf("after %d records: %d writes", i+1, got)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, n := collect(t, path, walog.Options{})
	defer l2.Close()
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
	for i, p := range got {
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, 10*i)) {
			t.Fatalf("record %d replayed as %q", i, p)
		}
	}
}

// TestAppendReplay is the core durability round trip: records appended and
// synced come back in order, byte for byte, at the next Open.
func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, n := collect(t, path, walog.Options{})
	if n != 0 {
		t.Fatalf("fresh log replayed %d records", n)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if l.Size() == 0 {
		t.Fatal("Size = 0 after 50 appends")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got, n := collect(t, path, walog.Options{})
	defer l2.Close()
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTornTailTruncated writes a partial frame after real records: Open
// must replay the intact prefix, truncate the garbage, and leave the log
// appendable.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	valid := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a frame header: unmistakably torn.
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, got, n := collect(t, path, walog.Options{})
	if n != 5 || len(got) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", n)
	}
	if l2.Size() != valid {
		t.Fatalf("Size after torn-tail truncation = %d, want %d", l2.Size(), valid)
	}
	// The log must still accept appends and survive another cycle.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, got, n := collect(t, path, walog.Options{})
	defer l3.Close()
	if n != 6 || string(got[5]) != "after" {
		t.Fatalf("second recovery replayed %d records (last %q), want 6 ending %q", n, got[len(got)-1], "after")
	}
}

// TestGroupCommit: concurrent appends each block until their record is
// durable while a reader tails committed records throughout, as a
// follower's pulls do, and every record replays.
func TestGroupCommit(t *testing.T) {
	// window=0s: the log has no sync window; concurrent Waits share
	// fsyncs through the leader sync alone.
	t.Run("window=0s", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log")
		l, _, _ := collect(t, path, walog.Options{})
		const writers, each = 8, 25
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						t.Errorf("Append: %v", err)
						return
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		tailed := make(chan int)
		go func() {
			var from uint64
			for {
				frames, next, err := l.Tail(from, 256)
				if err != nil {
					t.Errorf("Tail(%d): %v", from, err)
					break
				}
				if _, err := walog.ReadStream(frames, func([]byte) error { return nil }); err != nil {
					t.Errorf("Tail(%d) frames: %v", from, err)
					break
				}
				if next == from {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					l.WaitWritten(ctx, from+1)
					cancel()
				}
				from = next
				select {
				case <-stop:
					if _, committed := l.SeqState(); from == committed {
						tailed <- int(from)
						return
					}
				default:
				}
			}
			tailed <- -1
		}()
		wg.Wait()
		close(stop)
		if n := <-tailed; n != writers*each {
			t.Fatalf("tailed %d committed records, want %d", n, writers*each)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, _, n := collect(t, path, walog.Options{})
		defer l2.Close()
		if n != writers*each {
			t.Fatalf("replayed %d records, want %d", n, writers*each)
		}
	})
}

// TestEnqueueOrderWait pins the two-phase contract: Enqueue fixes record
// order, Wait can be called later (and out of order) and still attests
// durability of exactly that record's prefix.
func TestEnqueueOrderWait(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	var tickets []walog.Ticket
	for i := 0; i < 10; i++ {
		tickets = append(tickets, l.Enqueue([]byte{byte(i)}))
	}
	// Waiting on the last first syncs the whole prefix; earlier Waits
	// return immediately.
	for i := len(tickets) - 1; i >= 0; i-- {
		if err := tickets[i].Wait(context.Background(), time.Time{}); err != nil {
			t.Fatalf("Wait(%d): %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, _ := collect(t, path, walog.Options{})
	defer l2.Close()
	for i := range got {
		if got[i][0] != byte(i) {
			t.Fatalf("record %d = %v: enqueue order not preserved", i, got[i])
		}
	}
}

// TestZeroTicket pins the no-log convention: the zero Ticket is durable
// immediately, so callers without a journal pass it through unconditionally.
func TestZeroTicket(t *testing.T) {
	if err := (walog.Ticket{}).Wait(context.Background(), time.Time{}); err != nil {
		t.Fatalf("zero Ticket Wait = %v, want nil", err)
	}
}

// TestClosed: appends after Close fail with ErrClosed; Close is idempotent.
func TestClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, walog.ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// flakyFile wraps the append-side handle; failures are toggled after Open
// so replay (which reads the raw file) is unaffected.
type flakyFile struct {
	walog.File
	failWrite atomic.Bool
	failSync  atomic.Bool
}

var errInjected = errors.New("injected fault")

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failWrite.Load() {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.failSync.Load() {
		return errInjected
	}
	return f.File.Sync()
}

// TestStickyFailure: a sync failure poisons the log permanently — every
// later append reports the original failure even after the fault clears,
// because the log can no longer attest which records are durable.
func TestStickyFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var ff *flakyFile
	l, _, _ := collect(t, path, walog.Options{
		WrapFile: func(f walog.File) walog.File { ff = &flakyFile{File: f}; return ff },
	})
	defer l.Close()
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	ff.failSync.Store(true)
	err := l.Append([]byte("doomed"))
	if !errors.Is(err, errInjected) {
		t.Fatalf("append during fault = %v, want injected fault", err)
	}
	ff.failSync.Store(false)
	if err2 := l.Append([]byte("late")); !errors.Is(err2, errInjected) {
		t.Fatalf("append after fault cleared = %v, want sticky original", err2)
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil on a failed log")
	}
}

// TestStickyWriteFailure: an append-side write failure is equally sticky.
func TestStickyWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var ff *flakyFile
	l, _, _ := collect(t, path, walog.Options{
		WrapFile: func(f walog.File) walog.File { ff = &flakyFile{File: f}; return ff },
	})
	defer l.Close()
	ff.failWrite.Store(true)
	if err := l.Append([]byte("x")); !errors.Is(err, errInjected) {
		t.Fatalf("append = %v, want injected fault", err)
	}
	ff.failWrite.Store(false)
	if err := l.Append([]byte("y")); err == nil {
		t.Fatal("append succeeded after write failure; stickiness lost")
	}
}

// TestCheckpoint: a checkpoint resets the log to empty (the snapshot now
// carries the state), and only post-checkpoint records replay.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, _, _ := collect(t, path, walog.Options{})
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	saved := false
	if err := l.Checkpoint(func() error { saved = true; return nil }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !saved {
		t.Fatal("Checkpoint did not run save")
	}
	if l.Size() != 0 {
		t.Fatalf("Size after checkpoint = %d, want 0", l.Size())
	}
	if err := l.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, n := collect(t, path, walog.Options{})
	defer l2.Close()
	if n != 1 || string(got[0]) != "post" {
		t.Fatalf("replayed %d records %q, want just %q", n, got, "post")
	}
}

// TestCheckpointSaveFailure: a failing save leaves the log untouched — the
// old snapshot plus the intact log still reconstruct the state.
func TestCheckpointSaveFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Size()
	saveErr := errors.New("save failed")
	if err := l.Checkpoint(func() error { return saveErr }); !errors.Is(err, saveErr) {
		t.Fatalf("Checkpoint = %v, want save error", err)
	}
	if l.Size() != size {
		t.Fatalf("Size after failed save = %d, want untouched %d", l.Size(), size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, n := collect(t, path, walog.Options{})
	defer l2.Close()
	if n != 3 {
		t.Fatalf("replayed %d records after failed checkpoint, want 3", n)
	}
}

// TestReplayApplyError: a failing apply aborts Open — the owner must not
// come up on state it could not reconstruct.
func TestReplayApplyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{})
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	applyErr := errors.New("apply rejected")
	if _, _, err := walog.Open(path, func([]byte) error { return applyErr }, walog.Options{}); !errors.Is(err, applyErr) {
		t.Fatalf("Open with failing apply = %v, want apply error", err)
	}
}
