package tabled

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/retry"
	"pairfn/internal/srvkit"
)

var errSyncLost = errors.New("injected fsync failure")

// parkSyncFile is a primary's WAL handle whose Sync, while armed,
// announces itself on entered and parks until the test sends its result on
// release.
type parkSyncFile struct {
	WALFile
	armed   atomic.Bool
	entered chan struct{}
	release chan error
}

func (f *parkSyncFile) Sync() error {
	if !f.armed.Load() {
		return f.WALFile.Sync()
	}
	f.entered <- struct{}{}
	if err := <-f.release; err != nil {
		return err
	}
	return f.WALFile.Sync()
}

// drillPrimary is a semi-sync primary that serves reseeds, on a fixed
// address so that it can crash and come back where its follower looks.
type drillPrimary struct {
	b    *Sharded[string]
	wal  *WAL
	gate *ReplGate
	pf   *parkSyncFile
	stop func()
}

// startDrillPrimary serves a primary over the WAL at dir/primary.wal on l,
// after logging rewrite new records of its own, as writes that land after
// a boot and before the follower redials. stop kills it: no reply for a
// parked pull, then the WAL closes.
func startDrillPrimary(t *testing.T, dir string, l net.Listener, ackTimeout time.Duration, rewrite int) *drillPrimary {
	t.Helper()
	p := &drillPrimary{
		b:    newWALBackend(t, 16, 16),
		gate: &ReplGate{Timeout: ackTimeout},
		pf:   &parkSyncFile{entered: make(chan struct{}, 1), release: make(chan error, 1)},
	}
	p.wal, _ = openWALInto(t, dir+"/primary.wal", p.b, WALOptions{
		WrapFile: func(f WALFile) WALFile { p.pf.WALFile = f; return p.pf },
	})
	for i := 0; i < rewrite; i++ {
		c := Cell[string]{X: int64(i + 1), Y: 16, V: fmt.Sprintf("rewrite-%d", i)}
		p.b.SetBatchInto([]Cell[string]{c}, make([]error, 1))
		if err := p.wal.AppendSet([]Cell[string]{c}); err != nil {
			t.Fatal(err)
		}
	}
	repl := &Repl{WAL: p.wal, Gate: p.gate, Snap: &ReplSnapshots{WAL: p.wal, Save: p.b.SaveAt, Dir: dir}}
	srv := &http.Server{Handler: NewHandler(p.b, ServerOptions{WAL: p.wal, Repl: repl})}
	ups := srvkit.TrackUpgrades(srv)
	go srv.Serve(l)
	var once atomic.Bool
	p.stop = func() {
		if once.Swap(true) {
			return
		}
		p.pf.armed.Store(false)
		select { // a test that failed with the fsync parked must not hang here
		case p.pf.release <- nil:
		default:
		}
		srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ups.Close(ctx)
		p.wal.Close()
	}
	t.Cleanup(p.stop)
	return p
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSemiSyncOverlapCrashDrill: the follower receives a write as soon as
// the primary has written it, and makes it durable while the primary's
// own fsync is still parked; the write is not acknowledged meanwhile. The
// primary then "crashes" and loses its unsynced suffix (its WAL cut back
// to the synced length) and restarts at the same epoch, so its follower
// holds a record the primary lacks — and, with rewrite, the primary logs
// two new records at and past that sequence before the follower redials:
//
//   - a reseed-capable follower reseeds and ends cell-equal to the
//     primary, and writes flow again;
//   - a follower without reseed sticks, and its pulls acknowledge
//     nothing: a new write on the primary is refused, not acknowledged
//     on the primary alone.
//
// The in-flight batch is never acknowledged, and after a reseed neither
// node holds its cell.
func TestSemiSyncOverlapCrashDrill(t *testing.T) {
	for _, tc := range []struct {
		reseed  bool
		rewrite int
	}{{true, 0}, {false, 0}, {true, 2}, {false, 2}} {
		reseed := tc.reseed
		t.Run(fmt.Sprintf("reseed=%v/rewrite=%d", reseed, tc.rewrite), func(t *testing.T) {
			dir, fdir := t.TempDir(), t.TempDir()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr().String()
			base := "http://" + addr
			p := startDrillPrimary(t, dir, l, 5*time.Second, 0)
			var (
				fnode *replNode
				f     *Follower
			)
			if reseed {
				fnode, f = startReseedFollower(t, fdir, base, nil)
			} else {
				fnode, f = startFollower(t, fdir, base)
			}
			setCells(t, base, 0, 5)
			_, h := p.wal.SeqState()
			synced := p.wal.Size()

			// The in-flight batch: written and served, its fsync parked.
			p.pf.armed.Store(true)
			client := &Client{Base: base}
			acked := make(chan error, 1)
			go func() { acked <- client.Set(context.Background(), Cell[string]{X: 9, Y: 9, V: "in-flight"}) }()
			select {
			case <-p.pf.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the primary never reached its fsync")
			}
			waitFor(t, "the follower to make the in-flight record durable", func() bool { return f.Applied() == h+1 })
			waitFor(t, "the follower's ack of the in-flight record", func() bool { return p.gate.Acked() == h+1 })
			select {
			case err := <-acked:
				t.Fatalf("batch answered (%v) while the primary's fsync was parked", err)
			case <-time.After(50 * time.Millisecond):
			}

			// Crash: the fsync fails, the batch is refused, and the
			// unsynced suffix is gone when the primary comes back.
			p.pf.release <- errSyncLost
			if err := <-acked; err == nil {
				t.Fatal("the in-flight batch was acknowledged though the primary never synced it")
			}
			p.stop()
			if err := os.Truncate(dir+"/primary.wal", synced); err != nil {
				t.Fatal(err)
			}
			if l, err = net.Listen("tcp", addr); err != nil {
				t.Fatal(err)
			}
			ackTimeout := 5 * time.Second
			if !reseed {
				ackTimeout = 200 * time.Millisecond // the write below is refused: do not wait long
			}
			p = startDrillPrimary(t, dir, l, ackTimeout, tc.rewrite)
			if _, next := p.wal.SeqState(); next != h+uint64(tc.rewrite) {
				t.Fatalf("restarted primary holds %d records, want %d", next, h+uint64(tc.rewrite))
			}

			if reseed {
				waitFor(t, "the reseed", func() bool { return f.Reseeds() == 1 && f.Applied() >= h })
				if err := f.Err(); err != nil {
					t.Fatalf("follower err = %v", err)
				}
				setCells(t, base, 1, 3)
				waitCaughtUp(t, &replNode{wal: p.wal}, f)
			} else {
				waitSticky(t, f)
				if err := f.Err(); !strings.Contains(err.Error(), "diverged") {
					t.Fatalf("sticky err = %v", err)
				}
				if got := p.gate.Acked(); got != 0 {
					t.Fatalf("a pull from past the primary's log moved its gate to %d", got)
				}
				err := client.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "unconfirmed"})
				if err == nil || !strings.Contains(err.Error(), "replication unconfirmed") {
					t.Fatalf("write with only a diverged follower: %v, want the gate's refusal", err)
				}
				return
			}
			want := tableState(t, p.b)
			if got := tableState(t, fnode.b); !reflect.DeepEqual(got, want) {
				t.Fatalf("follower: %d cells, primary: %d", len(got), len(want))
			}
			if _, ok := want[[2]int64{9, 9}]; ok {
				t.Fatal("the unacknowledged in-flight cell survived the crash")
			}
		})
	}
}

// TestSameEpochConflictBelowSeenHorizonSticks: a reseed-capable follower
// that has seen the primary report records durable, and then finds the
// primary restarted at the same epoch below that horizon, sticks — the
// primary lost records it had called durable, which may have been
// acknowledged, and a reseed would hide that.
func TestSameEpochConflictBelowSeenHorizonSticks(t *testing.T) {
	dir, fdir := t.TempDir(), t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	base := "http://" + addr
	p := startDrillPrimary(t, dir, l, 5*time.Second, 0)
	_, f := startReseedFollower(t, fdir, base, nil)
	setCells(t, base, 0, 2)
	kept := p.wal.Size()
	setCells(t, base, 1, 3)
	waitCaughtUp(t, &replNode{wal: p.wal}, f)
	time.Sleep(200 * time.Millisecond) // later pulls report the whole horizon durable

	p.stop()
	if err := os.Truncate(dir+"/primary.wal", kept); err != nil {
		t.Fatal(err)
	}
	if l, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	p = startDrillPrimary(t, dir, l, 5*time.Second, 0)
	waitSticky(t, f)
	if err := f.Err(); !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("sticky err = %v", err)
	}
	if n := f.Reseeds(); n != 0 {
		t.Fatalf("reseeds = %d, want 0", n)
	}
}

// BenchmarkSemiSyncWrite times one 128-cell set batch through a semi-sync
// primary and its follower, both in-process on real files: the primary's
// apply, WAL append and fsync, the follower's pull, apply, append and
// fsync, and the gate's wait for the follower's ack. ns/op is the ack
// latency of one batch at a time.
func BenchmarkSemiSyncWrite(b *testing.B) {
	dir := b.TempDir()
	primary := startPrimary(b, dir, &ReplGate{Timeout: 10 * time.Second})
	startFollower(b, dir, primary.srv.URL)
	client := &Client{Base: primary.srv.URL, Wire: WireBinary}
	ops := make([]Op, 128)
	for i := range ops {
		ops[i] = Op{Op: "set", X: int64(i%16 + 1), Y: int64(i/16 + 1), V: fmt.Sprintf("value-%03d", i)}
	}
	ctx := context.Background()
	if _, err := client.Batch(ctx, ops); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Batch(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWritePositionIsTheBatchsOwn: a write is answered with the position
// just past its own last record, not the log's durable horizon, which
// can already cover records logged after it (here x, written while the
// batch waited behind another fsync and made durable by the batch's own).
// The replication gate waits on the same position.
func TestWritePositionIsTheBatchsOwn(t *testing.T) {
	ctx := context.Background()
	table := newConnTable(t, nil)
	pf := &parkSyncFile{entered: make(chan struct{}, 1), release: make(chan error, 1)}
	wal, _ := openWALInto(t, filepath.Join(t.TempDir(), "table.wal"), table, WALOptions{
		WrapFile: func(f WALFile) WALFile { pf.WALFile = f; return pf },
	})
	t.Cleanup(func() { wal.Close() })
	_, _, p := startConnServer(t, table, ServerOptions{WAL: wal})
	record := func(v string) []byte { return appendSetRecord(nil, []Cell[string]{{X: 3, Y: 3, V: v}}) }

	pf.armed.Store(true)
	y := wal.Enqueue(record("y"))
	size := wal.Size()
	parked := make(chan error, 1)
	go func() { parked <- y.Wait(ctx, time.Time{}) }()
	<-pf.entered
	pf.armed.Store(false)

	type reply struct {
		pos uint64
		err error
	}
	answered := make(chan reply, 1)
	go func() {
		_, pos, err := p.Exchange(ctx, new(ExchangeBuf), []Op{{Op: "set", X: 1, Y: 1, V: "a"}}, nil, 0, time.Time{})
		answered <- reply{pos, err}
	}()
	waitFor(t, "the batch's record", func() bool { return wal.Size() > size })
	x := wal.Enqueue(record("x"))
	pf.release <- nil
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	r := <-answered
	if r.err != nil || r.pos != 2 {
		t.Fatalf("write answered pos %d, %v; want 2, its own record", r.pos, r.err)
	}
	if err := x.Wait(ctx, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, next := wal.SeqState(); next != 3 {
		t.Fatalf("durable horizon %d, want 3", next)
	}
}

// TestFollowerRepointedAtSibling: a follower moved, at the same epoch, from
// the primary to a sibling follower resumes from its own position. The
// sibling never served it those records, but holds them from the same
// source, so it vouches for them.
func TestFollowerRepointedAtSibling(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, nil)
	sibling, sf := startFollower(t, t.TempDir(), primary.srv.URL)
	setCells(t, primary.srv.URL, 0, 5)
	waitCaughtUp(t, primary, sf)

	b := newWALBackend(t, 16, 16)
	w, _ := openWALInto(t, dir+"/moved.wal", b, WALOptions{})
	t.Cleanup(func() { w.Close() })
	opt := FollowerOptions{
		Source:   primary.srv.URL,
		PollWait: 20 * time.Millisecond,
		Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: -1},
	}
	first := NewFollower(b, w, 0, opt)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); first.Run(ctx) }()
	waitCaughtUp(t, primary, first)
	cancel()
	<-done

	opt.Source = sibling.srv.URL
	moved := NewFollower(b, w, first.Applied(), opt)
	runFollower(t, moved)
	setCells(t, primary.srv.URL, 1, 3)
	waitCaughtUp(t, primary, moved)
	if err := moved.Err(); err != nil {
		t.Fatalf("re-pointed follower: %v", err)
	}
}
