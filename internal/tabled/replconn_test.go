package tabled

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/srvkit"
)

// runFollower starts f's pull loop until the test ends.
func runFollower(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
}

// setCells writes n single-cell batches through the primary's front door,
// so its log holds n records.
func setCells(t *testing.T, base string, round, n int) {
	t.Helper()
	client := &Client{Base: base}
	for i := 0; i < n; i++ {
		c := Cell[string]{X: int64(i%16) + 1, Y: int64(round%16) + 1, V: fmt.Sprintf("r%d-%d", round, i)}
		if err := client.Set(context.Background(), c); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
}

// TestFollowerOneSyncPerPull: a follower that pulls k records in one
// exchange applies and logs all k, then makes them durable with exactly
// one fsync before its position moves.
func TestFollowerOneSyncPerPull(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, nil)
	const k = 20
	setCells(t, primary.srv.URL, 0, k)

	reg := obs.NewRegistry()
	m := NewMetrics(reg, 16)
	b := newWALBackend(t, 16, 16)
	w, _ := openWALInto(t, dir+"/follower.wal", b, WALOptions{Metrics: m})
	t.Cleanup(func() { w.Close() })
	f := NewFollower(b, w, 0, FollowerOptions{Source: primary.srv.URL, PollWait: 20 * time.Millisecond, Metrics: m})
	runFollower(t, f)
	waitCaughtUp(t, primary, f)

	if n := reg.Counter("tabled_repl_applied_records_total").Value(); n != k {
		t.Fatalf("applied %d records, want %d", n, k)
	}
	if n := reg.Counter("tabled_wal_syncs_total", obs.L("result", "ok")).Value(); n != 1 {
		t.Fatalf("%d follower fsyncs for one %d-record pull, want 1", n, k)
	}
	if got, want := tableState(t, b), tableState(t, primary.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state: %d cells vs %d", len(got), len(want))
	}
}

// TestFollowerSyncFailureSticks: when the fsync covering a pulled chunk
// fails, the follower's position does not move past records it could not
// make durable, and the failure is sticky.
func TestFollowerSyncFailureSticks(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, nil)
	setCells(t, primary.srv.URL, 0, 5)

	fi := NewFaultInjector(&Faults{SyncErrRate: 1})
	b := newWALBackend(t, 16, 16)
	w, _ := openWALInto(t, dir+"/follower.wal", b, WALOptions{WrapFile: fi.WrapWALFile})
	t.Cleanup(func() { w.Close() })
	f := NewFollower(b, w, 0, FollowerOptions{
		Source:   primary.srv.URL,
		PollWait: 20 * time.Millisecond,
		Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: -1},
	})
	runFollower(t, f)
	waitSticky(t, f)
	if err := f.Err(); !strings.Contains(err.Error(), "repl append") {
		t.Fatalf("sticky err = %v, want the failed append", err)
	}
	if a := f.Applied(); a != 0 {
		t.Fatalf("Applied = %d after the chunk's fsync failed, want 0", a)
	}
}

// TestFollowerRedialsAfterPrimaryRestart: a primary killed while the
// follower's pull is parked in its long-poll comes back on the same
// address; the follower redials and resumes, and the two logs end up
// byte-identical.
func TestFollowerRedialsAfterPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	ppath := dir + "/primary.wal"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	type node struct {
		b    *Sharded[string]
		wal  *WAL
		stop func()
	}
	start := func(l net.Listener) *node {
		n := &node{b: newWALBackend(t, 16, 16)}
		n.wal, _ = openWALInto(t, ppath, n.b, WALOptions{})
		srv := &http.Server{Handler: NewHandler(n.b, ServerOptions{WAL: n.wal, Repl: &Repl{WAL: n.wal}})}
		ups := srvkit.TrackUpgrades(srv)
		go srv.Serve(l)
		n.stop = func() {
			srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // a kill: no reply for the parked pull
			ups.Close(ctx)
			n.wal.Close()
		}
		return n
	}
	p := start(l)
	base := "http://" + addr
	setCells(t, base, 0, 10)

	fb := newWALBackend(t, 16, 16)
	fpath := dir + "/follower.wal"
	fw, _ := openWALInto(t, fpath, fb, WALOptions{})
	t.Cleanup(func() { fw.Close() })
	f := NewFollower(fb, fw, 0, FollowerOptions{
		Source:   base,
		PollWait: 10 * time.Second,
		Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
	})
	runFollower(t, f)
	waitCaughtUp(t, &replNode{wal: p.wal}, f)
	time.Sleep(20 * time.Millisecond) // the next pull parks in its long-poll

	p.stop()
	if l, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	p = start(l)
	defer p.stop()
	setCells(t, base, 1, 10)
	waitCaughtUp(t, &replNode{wal: p.wal}, f)
	if f.Err() != nil {
		t.Fatalf("follower err = %v", f.Err())
	}
	if _, next := fw.SeqState(); next != 20 {
		t.Fatalf("follower log holds %d records, want 20", next)
	}
	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	fbytes, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, fbytes) {
		t.Fatalf("follower log (%d bytes) differs from the primary's (%d bytes)", len(fbytes), len(pb))
	}
	if got, want := tableState(t, fb), tableState(t, p.b); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state: %d cells vs %d", len(got), len(want))
	}
}

// TestReplConnDrainSkipsPollWait: shutting the primary down answers a
// follower's parked pull and closes its connection at once, instead of
// holding the drain open for the rest of the follower's long-poll window.
func TestReplConnDrainSkipsPollWait(t *testing.T) {
	dir := t.TempDir()
	pb := newWALBackend(t, 16, 16)
	pw, _ := openWALInto(t, dir+"/primary.wal", pb, WALOptions{})
	reg := obs.NewRegistry()
	h := NewHandler(pb, ServerOptions{WAL: pw, Repl: &Repl{WAL: pw}, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lc := srvkit.Lifecycle{
		Server:       srvkit.NewHTTPServer("", h, time.Minute),
		Listener:     ln,
		DrainTimeout: 30 * time.Second,
		Final:        []srvkit.Step{{Name: "wal close", Run: pw.Close}},
	}
	ctx, stop := context.WithCancel(context.Background())
	code := make(chan int, 1)
	go func() { code <- lc.Run(ctx) }()
	base := "http://" + ln.Addr().String()
	setCells(t, base, 0, 3)

	fb := newWALBackend(t, 16, 16)
	fw, _ := openWALInto(t, dir+"/follower.wal", fb, WALOptions{})
	t.Cleanup(func() { fw.Close() })
	f := NewFollower(fb, fw, 0, FollowerOptions{
		Source:   base,
		PollWait: 20 * time.Second,
		Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
	})
	runFollower(t, f)
	waitCaughtUp(t, &replNode{wal: pw}, f)
	time.Sleep(20 * time.Millisecond) // the next pull parks in its long-poll

	began := time.Now()
	stop()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("shutdown exit code %d, want 0", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown waited out the follower's long-poll")
	}
	if d := time.Since(began); d > 5*time.Second {
		t.Fatalf("shutdown took %v with a pull parked", d)
	}
	// Every pull the follower made is an exchange recorded under the
	// frames label, none under /v1/batch.
	if n := reg.Counter("http_requests_total", obs.L("path", ReplFramesPath), obs.L("code", "2xx")).Value(); n < 1 {
		t.Fatalf("%d pull exchanges recorded under %s, want ≥ 1", n, ReplFramesPath)
	}
	if n := reg.Counter("http_requests_total", obs.L("path", "/v1/batch"), obs.L("code", "2xx")).Value(); n != 3 {
		t.Fatalf("%d requests recorded under /v1/batch, want the 3 sets", n)
	}
}
