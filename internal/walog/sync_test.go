package walog_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/walog"
)

// parkFile is an append-side handle whose Sync, once armed, announces
// itself on entered and parks until the test sends its result on release.
type parkFile struct {
	walog.File
	armed   atomic.Bool
	entered chan struct{}
	release chan error
}

func (f *parkFile) Sync() error {
	if !f.armed.Load() {
		return f.File.Sync()
	}
	f.entered <- struct{}{}
	if err := <-f.release; err != nil {
		return err
	}
	return f.File.Sync()
}

// openParked opens a direct-sync log through a parkFile. Cleanup releases
// any parked Sync before closing, so a failing test never hangs.
func openParked(t *testing.T) (*walog.Log, *parkFile) {
	t.Helper()
	pf := &parkFile{entered: make(chan struct{}, 1), release: make(chan error, 8)}
	l, _, _ := collect(t, filepath.Join(t.TempDir(), "log"), walog.Options{
		WrapFile: func(f walog.File) walog.File { pf.File = f; return pf },
	})
	t.Cleanup(func() {
		pf.armed.Store(false)
		for i := 0; i < cap(pf.release); i++ {
			pf.release <- nil
		}
		l.Close()
	})
	return l, pf
}

// within runs fn and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s blocked for %v behind a parked fsync", what, d)
	}
}

// parkWait starts Wait on tk in the background and returns once its fsync
// has parked; the Wait's result arrives on the returned channel.
func parkWait(t *testing.T, pf *parkFile, tk walog.Ticket) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- tk.Wait(context.Background(), time.Time{}) }()
	select {
	case <-pf.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never reached fsync")
	}
	return res
}

// TestSyncRunsOutsideLock: while one Wait is parked in fsync, appends,
// the sequence line, the epoch, Tail of committed records and a
// WaitCommitted that is already satisfied all return — the fsync does not
// hold the log's mutex.
func TestSyncRunsOutsideLock(t *testing.T) {
	l, pf := openParked(t)
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	pf.armed.Store(true)
	parked := parkWait(t, pf, l.Enqueue([]byte("b")))

	const d = 2 * time.Second
	var c walog.Ticket
	within(t, d, "Enqueue", func() { c = l.Enqueue([]byte("c")) })
	within(t, d, "SeqState", func() {
		if base, next := l.SeqState(); base != 0 || next != 1 {
			t.Errorf("SeqState = [%d, %d) during the sync, want [0, 1)", base, next)
		}
	})
	within(t, d, "Epoch", func() { l.Epoch() })
	within(t, d, "Tail", func() {
		frames, next, err := l.Tail(0, 0)
		if err != nil || next != 1 {
			t.Errorf("Tail(0) = next %d, %v; want 1", next, err)
			return
		}
		var got []string
		walog.ReadStream(frames, func(p []byte) error { got = append(got, string(p)); return nil })
		if len(got) != 1 || got[0] != "a" {
			t.Errorf("Tail(0) records = %q, want [a]", got)
		}
	})
	within(t, d, "WaitCommitted", func() {
		if err := l.WaitCommitted(context.Background(), 1); err != nil {
			t.Errorf("WaitCommitted(1) = %v", err)
		}
	})

	pf.armed.Store(false)
	pf.release <- nil
	if err := <-parked; err != nil {
		t.Fatalf("parked Wait = %v", err)
	}
	// The sync began before c was written, so it made b durable, not c.
	if _, next := l.SeqState(); next != 2 {
		t.Fatalf("committed = %d after the parked sync, want 2", next)
	}
	if err := c.Wait(context.Background(), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, next := l.SeqState(); next != 3 {
		t.Fatalf("committed = %d after c's Wait, want 3", next)
	}
}

// TestSyncStraddlingCheckpoint: a checkpoint requested while a sync is in
// flight waits it out, and the sync's completion cannot move the committed
// horizon past the checkpoint's new base. A ticket enqueued before the
// truncation is covered by the snapshot and needs no further fsync.
func TestSyncStraddlingCheckpoint(t *testing.T) {
	l, pf := openParked(t)
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	pf.armed.Store(true)
	parked := parkWait(t, pf, l.Enqueue([]byte("b")))
	var c walog.Ticket
	within(t, 2*time.Second, "Enqueue", func() { c = l.Enqueue([]byte("c")) })

	var cut uint64
	checkpointed := make(chan error, 1)
	go func() {
		checkpointed <- l.CheckpointSeq(func(seq uint64) error { cut = seq; return nil })
	}()
	select {
	case err := <-checkpointed:
		t.Fatalf("CheckpointSeq returned %v while a sync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	pf.armed.Store(false)
	pf.release <- nil
	if err := <-parked; err != nil {
		t.Fatalf("parked Wait = %v", err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	if cut != 3 {
		t.Fatalf("checkpoint cut = %d, want 3 (a, b and c)", cut)
	}
	if base, next := l.SeqState(); base != 3 || next != 3 {
		t.Fatalf("SeqState after the checkpoint = [%d, %d), want [3, 3)", base, next)
	}
	if err := c.Wait(context.Background(), time.Time{}); err != nil {
		t.Fatalf("pre-checkpoint ticket Wait = %v", err)
	}
	if base, next := l.SeqState(); base != 3 || next != 3 {
		t.Fatalf("SeqState after the old ticket's Wait = [%d, %d), want [3, 3)", base, next)
	}
	if err := l.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	frames, next, err := l.Tail(3, 0)
	if err != nil || next != 4 {
		t.Fatalf("Tail(3) = next %d, %v; want 4", next, err)
	}
	var got []string
	if _, err := walog.ReadStream(frames, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "d" {
		t.Fatalf("records after the checkpoint = %q, want [d]", got)
	}
}

// TestSyncFailureReachesParkedWaiters: when the fsync a Wait leads fails,
// every Wait parked behind it returns the same sticky error, and so does
// every later append.
func TestSyncFailureReachesParkedWaiters(t *testing.T) {
	l, pf := openParked(t)
	pf.armed.Store(true)
	leader := parkWait(t, pf, l.Enqueue([]byte("a")))

	var wg sync.WaitGroup
	errs := make([]error, 3)
	within(t, 2*time.Second, "Enqueue", func() {
		for i := range errs {
			tk := l.Enqueue([]byte{byte('b' + i)})
			wg.Add(1)
			go func() { defer wg.Done(); errs[i] = tk.Wait(context.Background(), time.Time{}) }()
		}
	})
	time.Sleep(20 * time.Millisecond) // let the followers park
	pf.release <- errInjected
	if err := <-leader; !errors.Is(err, errInjected) {
		t.Fatalf("leader Wait = %v, want the injected fault", err)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errInjected) {
			t.Fatalf("parked Wait %d = %v, want the injected fault", i, err)
		}
	}
	pf.armed.Store(false)
	if err := l.Append([]byte("late")); !errors.Is(err, errInjected) {
		t.Fatalf("append after the failed sync = %v, want the sticky fault", err)
	}
	if _, next := l.SeqState(); next != 0 {
		t.Fatalf("committed = %d after a failed sync, want 0", next)
	}
}

// gateFile counts the frames written and the fsyncs run through it. Its
// first Sync closes entered and then holds until want frames are written,
// so every append made meanwhile finds that sync in flight.
type gateFile struct {
	walog.File
	want    int
	entered chan struct{}
	full    chan struct{}

	mu            sync.Mutex
	writes, syncs int
}

func newGateFile(want int) *gateFile {
	return &gateFile{want: want, entered: make(chan struct{}), full: make(chan struct{})}
}

func (f *gateFile) wrap(file walog.File) walog.File { f.File = file; return f }

func (f *gateFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.mu.Lock()
	f.writes++
	if f.writes == 2*f.want { // a frame is written as header, then payload
		close(f.full)
	}
	f.mu.Unlock()
	return n, err
}

func (f *gateFile) Sync() error {
	f.mu.Lock()
	f.syncs++
	first := f.syncs == 1
	f.mu.Unlock()
	if first {
		close(f.entered)
		select {
		case <-f.full:
		case <-time.After(5 * time.Second):
		}
	}
	return f.File.Sync()
}

func (f *gateFile) syncCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// TestConcurrentAppendsShareFsync: appends that arrive while an fsync is
// in flight share the next one. One writer's fsync is held until the other
// writers have all written their frames, so exactly two fsyncs make all of
// them durable: the held one and one more for everything behind it.
func TestConcurrentAppendsShareFsync(t *testing.T) {
	const writers = 8
	gf := newGateFile(writers)
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := collect(t, path, walog.Options{WrapFile: gf.wrap})
	var wg sync.WaitGroup
	appendOne := func(i int) {
		defer wg.Done()
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Errorf("Append %d: %v", i, err)
		}
	}
	wg.Add(1)
	go appendOne(0)
	select {
	case <-gf.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first Append never reached fsync")
	}
	for i := 1; i < writers; i++ {
		wg.Add(1)
		go appendOne(i)
	}
	wg.Wait()
	if n := gf.syncCount(); n != 2 {
		t.Fatalf("%d appends took %d fsyncs, want 2", writers, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, n := collect(t, path, walog.Options{})
	defer l2.Close()
	if n != writers {
		t.Fatalf("replayed %d records, want %d", n, writers)
	}
}

// TestParkedWaitEnds: a Wait parked behind another Wait's fsync gives up
// at its deadline, or when its context ends, while the fsync is still in
// flight; the record stays enqueued, and the next sync makes it durable.
func TestParkedWaitEnds(t *testing.T) {
	l, pf := openParked(t)
	pf.armed.Store(true)
	leader := parkWait(t, pf, l.Enqueue([]byte("a")))

	const timeout = 50 * time.Millisecond
	b := l.Enqueue([]byte("b"))
	start := time.Now()
	if err := b.Wait(context.Background(), start.Add(timeout)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait past its deadline = %v, want %v", err, context.DeadlineExceeded)
	}
	if took := time.Since(start); took < timeout || took > timeout+time.Second {
		t.Fatalf("Wait gave up after %v, want about %v", took, timeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(timeout, cancel)
	if err := b.Wait(ctx, time.Time{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with its context canceled = %v, want %v", err, context.Canceled)
	}

	pf.armed.Store(false)
	pf.release <- nil
	if err := <-leader; err != nil {
		t.Fatalf("leading Wait = %v", err)
	}
	if err := b.Wait(context.Background(), time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("Wait after the fsync = %v", err)
	}
	if _, next := l.SeqState(); next != 2 {
		t.Fatalf("committed = %d, want 2 (a and b)", next)
	}
}
