package tabled

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/retry"
)

// replNode is one end of a replication pair: a sharded backend, its WAL,
// and the HTTP server fronting both.
type replNode struct {
	b    *Sharded[string]
	wal  *WAL
	repl *Repl
	srv  *httptest.Server
}

func startReplNode(t *testing.T, path string, build func(n *replNode) ServerOptions) *replNode {
	t.Helper()
	n := &replNode{b: newWALBackend(t, 16, 16)}
	var replayed int
	n.wal, replayed = openWALInto(t, path, n.b, WALOptions{})
	t.Cleanup(func() { n.wal.Close() })
	opt := build(n)
	_ = replayed
	n.srv = httptest.NewServer(NewHandler(n.b, opt))
	t.Cleanup(n.srv.Close)
	return n
}

// startPrimary builds a primary serving follower pulls (gate optional).
func startPrimary(t *testing.T, dir string, gate *ReplGate) *replNode {
	t.Helper()
	return startReplNode(t, dir+"/primary.wal", func(n *replNode) ServerOptions {
		n.repl = &Repl{WAL: n.wal, Gate: gate}
		return ServerOptions{WAL: n.wal, Repl: n.repl}
	})
}

// startFollower builds a follower of source and runs its pull loop until
// the test ends.
func startFollower(t *testing.T, dir string, source string) (*replNode, *Follower) {
	t.Helper()
	var f *Follower
	writable := obs.NewFlag(false)
	n := startReplNode(t, dir+"/follower.wal", func(n *replNode) ServerOptions {
		_, next := n.wal.SeqState()
		f = NewFollower(n.b, n.wal, next, FollowerOptions{
			Source:   source,
			PollWait: 50 * time.Millisecond,
			Writable: writable,
			Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
		})
		n.repl = &Repl{WAL: n.wal, Follower: f}
		return ServerOptions{WAL: n.wal, Writable: writable, Repl: n.repl}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return n, f
}

// waitCaughtUp polls until the follower's applied position reaches the
// primary's committed horizon.
func waitCaughtUp(t *testing.T, p *replNode, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, next := p.wal.SeqState()
		if f.Applied() >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, primary at %d (err=%v)", f.Applied(), next, f.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationEndToEnd quick-checks the tentpole property over HTTP: a
// follower tailing a live primary converges to the identical table state
// across random batches of sets and resizes, and survives its own restart
// (resume from local WAL replay, no handshake).
func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, nil)
	follower, f := startFollower(t, dir, primary.srv.URL)

	client := &Client{Base: primary.srv.URL}
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		ops := make([]Op, 0, 20)
		for i := 0; i < 20; i++ {
			if rng.Float64() < 0.9 {
				ops = append(ops, Op{Op: "set",
					X: rng.Int63n(16) + 1, Y: rng.Int63n(16) + 1,
					V: fmt.Sprintf("r%d-%d", round, i)})
			} else {
				ops = append(ops, Op{Op: "resize",
					Rows: 8 + rng.Int63n(16), Cols: 8 + rng.Int63n(16)})
			}
		}
		if _, err := client.Batch(ctx, ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		waitCaughtUp(t, primary, f)
		if want, got := tableState(t, primary.b), tableState(t, follower.b); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: follower state diverged: %d cells vs %d", round, len(got), len(want))
		}
		pr, pc := primary.b.Dims()
		fr, fc := follower.b.Dims()
		if pr != fr || pc != fc {
			t.Fatalf("round %d: dims %dx%d vs %dx%d", round, fr, fc, pr, pc)
		}
	}
	if f.Lag() != 0 {
		t.Fatalf("caught-up lag = %d", f.Lag())
	}

	// The follower's /v1/repl/status advertises its role and position.
	var st ReplStatus
	getJSON(t, follower.srv.URL+ReplStatusPath, &st)
	if st.Role != "follower" || st.Source != primary.srv.URL || st.Applied != f.Applied() {
		t.Fatalf("follower status = %+v", st)
	}
	var pst ReplStatus
	getJSON(t, primary.srv.URL+ReplStatusPath, &pst)
	if pst.Role != "primary" || pst.Next != st.Applied {
		t.Fatalf("primary status = %+v (follower applied %d)", pst, st.Applied)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerPromote: a follower is read-only (writes 503, /readyz
// degraded) until POST /v1/promote flips it into a writable primary that
// serves its own frames.
func TestFollowerPromote(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, nil)
	follower, f := startFollower(t, dir, primary.srv.URL)

	client := &Client{Base: primary.srv.URL}
	ctx := context.Background()
	if err := client.Set(ctx, Cell[string]{X: 1, Y: 1, V: "before"}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, f)

	fc := &Client{Base: follower.srv.URL}
	if err := fc.Set(ctx, Cell[string]{X: 2, Y: 2, V: "refused"}); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("pre-promote write err = %v, want read-only refusal", err)
	}
	resp, err := http.Get(follower.srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower readyz = %d, want 503 degraded", resp.StatusCode)
	}

	// Promote twice: the transition and its idempotent replay.
	for i := 0; i < 2; i++ {
		presp, err := http.Post(follower.srv.URL+PromotePath, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var pr struct {
			Role     string `json:"role"`
			Promoted bool   `json:"promoted"`
		}
		if err := json.NewDecoder(presp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if pr.Role != "primary" || pr.Promoted != (i == 0) {
			t.Fatalf("promote #%d = %+v", i, pr)
		}
	}

	// Promoted: replicated state intact, writes open, role flipped.
	if v, found, err := fc.Get(ctx, 1, 1); err != nil || !found || v != "before" {
		t.Fatalf("promoted read = %q %v %v", v, found, err)
	}
	if err := fc.Set(ctx, Cell[string]{X: 2, Y: 2, V: "accepted"}); err != nil {
		t.Fatalf("post-promote write: %v", err)
	}
	var st ReplStatus
	getJSON(t, follower.srv.URL+ReplStatusPath, &st)
	if st.Role != "primary" {
		t.Fatalf("post-promote role = %q", st.Role)
	}
	// The new primary's own frames endpoint serves the full history — a
	// fresh follower can chain from it. The promotion's epoch bump caps
	// the first chunk at the boundary; the next pull serves the rest.
	frames, next, err := follower.wal.Tail(0, 1<<20)
	if err != nil || next != 1 || len(frames) == 0 {
		t.Fatalf("promoted Tail = %d bytes, next %d, %v", len(frames), next, err)
	}
	frames, next, err = follower.wal.Tail(next, 1<<20)
	if err != nil || next < 2 || len(frames) == 0 {
		t.Fatalf("promoted Tail(1) = %d bytes, next %d, %v", len(frames), next, err)
	}
	if e := follower.wal.Epoch(); e != 1 {
		t.Fatalf("post-promote epoch = %d, want 1", e)
	}
}

// TestFollowerDivergence: a follower whose position falls outside the
// primary's servable sequence window stops permanently — 410 when the
// primary checkpointed past it, 409 when it is ahead of the primary.
func TestFollowerDivergence(t *testing.T) {
	t.Run("checkpointed-away", func(t *testing.T) {
		dir := t.TempDir()
		primary := startPrimary(t, dir, nil)
		client := &Client{Base: primary.srv.URL}
		if err := client.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"}); err != nil {
			t.Fatal(err)
		}
		// Checkpoint moves base past 0: a fresh follower asking from 0 is
		// beyond recovery from the log alone.
		if err := primary.wal.Checkpoint(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		_, f := startFollower(t, dir, primary.srv.URL)
		waitSticky(t, f)
		if err := f.Err(); !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("sticky err = %v", err)
		}
	})
	t.Run("ahead-of-primary", func(t *testing.T) {
		dir := t.TempDir()
		primary := startPrimary(t, dir, nil)
		// The follower's local WAL already holds records the primary never
		// wrote (simulates a primary that lost its log).
		fdir := t.TempDir()
		b := newWALBackend(t, 16, 16)
		w, _ := openWALInto(t, fdir+"/follower.wal", b, WALOptions{})
		defer w.Close()
		if err := w.AppendSet([]Cell[string]{{X: 1, Y: 1, V: "phantom"}}); err != nil {
			t.Fatal(err)
		}
		_, next := w.SeqState()
		f := NewFollower(b, w, next, FollowerOptions{
			Source:   primary.srv.URL,
			PollWait: 20 * time.Millisecond,
			Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: -1},
		})
		done := make(chan struct{})
		go func() { defer close(done); f.Run(context.Background()) }()
		t.Cleanup(func() { f.Promote(); <-done })
		waitSticky(t, f)
		if err := f.Err(); !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("sticky err = %v", err)
		}
	})
}

func waitSticky(t *testing.T, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never recorded the sticky divergence")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplGateUnit covers the gate's horizon algebra directly.
func TestReplGateUnit(t *testing.T) {
	g := &ReplGate{Timeout: 30 * time.Millisecond}
	if err := g.Wait(context.Background(), time.Time{}, 0); err != nil {
		t.Fatalf("Wait(0) on zero gate: %v", err)
	}
	if err := g.Wait(context.Background(), time.Time{}, 3); !errors.Is(err, ErrReplAckTimeout) {
		t.Fatalf("unacked Wait err = %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Wait(context.Background(), time.Time{}, 3) }()
	g.Advance(2) // not enough
	g.Advance(5) // covers it
	if err := <-done; err != nil {
		t.Fatalf("Wait after Advance: %v", err)
	}
	g.Advance(1) // regression ignored
	if got := g.Acked(); got != 5 {
		t.Fatalf("Acked = %d after regressed Advance", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Wait(ctx, time.Time{}, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Wait err = %v", err)
	}
	// A batch deadline earlier than the gate timeout ends the wait first,
	// and is not an ack timeout.
	if err := g.Wait(context.Background(), time.Now().Add(5*time.Millisecond), 9); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait past the batch deadline err = %v", err)
	}
}

// TestSemiSyncAckGate drives the gate through the server: with no
// follower confirming, writes are refused with 503 (durable locally,
// never silently acked); once pulls advance the horizon, acks flow.
func TestSemiSyncAckGate(t *testing.T) {
	dir := t.TempDir()
	primary := startPrimary(t, dir, &ReplGate{Timeout: 50 * time.Millisecond})
	client := &Client{Base: primary.srv.URL}
	ctx := context.Background()

	err := client.Set(ctx, Cell[string]{X: 1, Y: 1, V: "unconfirmed"})
	if err == nil || !strings.Contains(err.Error(), "replication unconfirmed") {
		t.Fatalf("ungated-follower write err = %v, want replication refusal", err)
	}
	// The refused write IS durable on the primary (refuse-ack, not undo).
	if _, next := primary.wal.SeqState(); next != 1 {
		t.Fatalf("refused write not in WAL: next = %d", next)
	}

	// Reads are never gated.
	if _, _, err := client.Get(ctx, 1, 1); err != nil {
		t.Fatalf("read under stalled gate: %v", err)
	}

	// A live follower turns the same write into a success.
	_, f := startFollower(t, dir, primary.srv.URL)
	if err := client.Set(ctx, Cell[string]{X: 2, Y: 2, V: "confirmed"}); err != nil {
		t.Fatalf("gated write with live follower: %v", err)
	}
	waitCaughtUp(t, primary, f)
}
