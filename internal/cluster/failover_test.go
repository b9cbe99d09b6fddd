package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/tabled"
)

// replPair is a primary tabledserver with a WAL and a follower replicating
// it — the real replication stack, not a stub, so the router-level tests
// exercise the same frames/status/promote surface production does.
type replPair struct {
	primary  *member
	follower *member
	wal      *tabled.WAL // primary's
	fol      *tabled.Follower
	// stopPull stops the follower's pull loop and waits for it to exit;
	// the follower keeps serving what it has applied. Idempotent.
	stopPull func()
}

func startReplPair(t *testing.T, rows, cols int64) *replPair {
	t.Helper()
	f, err := core.ByName("diagonal")
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() extarray.Store[string] { return extarray.NewSlabStore() }
	dir := t.TempDir()
	open := func(name string) (*tabled.Sharded[string], *tabled.WAL) {
		b, err := tabled.NewSharded[string](f, 4, newStore, rows, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := tabled.OpenWAL(filepath.Join(dir, name), b, tabled.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return b, w
	}

	pb, pw := open("primary.wal")
	p := &replPair{wal: pw}
	p.primary = startMember(t, tabled.NewHandler(pb, tabled.ServerOptions{
		WAL: pw, Repl: &tabled.Repl{WAL: pw},
	}))

	fb, fw := open("follower.wal")
	writable := obs.NewFlag(false)
	_, next := fw.SeqState()
	p.fol = tabled.NewFollower(fb, fw, next, tabled.FollowerOptions{
		Source:   p.primary.URL,
		PollWait: 50 * time.Millisecond,
		Writable: writable,
		Retry:    &retry.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: -1},
	})
	p.follower = startMember(t, tabled.NewHandler(fb, tabled.ServerOptions{
		WAL: fw, Writable: writable, Repl: &tabled.Repl{WAL: fw, Follower: p.fol},
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.fol.Run(ctx) }()
	p.stopPull = func() { cancel(); <-done }
	t.Cleanup(p.stopPull)
	return p
}

func (p *replPair) waitCaughtUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, next := p.wal.SeqState()
		if p.fol.Applied() >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, primary at %d (err=%v)", p.fol.Applied(), next, p.fol.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverReadEquivalence extends the cluster's DeepEqual quick-check
// across a failover: random writes through the router, a read of every
// written position recorded, then the primary is killed and the follower
// promoted — the identical read batch must come back bit-identical from
// the promoted replica, and writes must flow again.
func TestFailoverReadEquivalence(t *testing.T) {
	const rows, cols = 40, 40
	pair := startReplPair(t, rows, cols)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Health().CheckNow(ctx)

	rng := rand.New(rand.NewSource(42))
	var writes, reads []tabled.Op
	for i := 0; i < 80; i++ {
		x, y := rng.Int63n(rows)+1, rng.Int63n(cols)+1
		writes = append(writes, tabled.Op{Op: "set", X: x, Y: y, V: fmt.Sprintf("v%d", i)})
		reads = append(reads, tabled.Op{Op: "get", X: x, Y: y})
	}
	reads = append(reads, tabled.Op{Op: "dims"}, tabled.Op{Op: "get", X: 7, Y: 9})
	for _, r := range rt.Execute(ctx, new(Scratch), writes, "") {
		if r.Err != "" {
			t.Fatalf("write: %+v", r)
		}
	}
	want := rt.Execute(ctx, new(Scratch), reads, "")
	for _, r := range want {
		if r.Err != "" {
			t.Fatalf("pre-failover read: %+v", r)
		}
	}
	pair.waitCaughtUp(t)

	// Failover: the primary dies; the operator promotes the follower; the
	// checker observes the role change. No router reconstruction.
	pair.primary.Close()
	resp, err := http.Post(pair.follower.URL+tabled.PromotePath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rt.Health().CheckNow(ctx)
	if _, rep, _ := rt.health.view(0); !rep.promoted || rep.state != StateHealthy {
		t.Fatalf("checker: promoted=%v state=%v", rep.promoted, rep.state)
	}

	got := rt.Execute(ctx, new(Scratch), reads, "")
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("op %d %+v:\n  post-failover %+v\n  pre-failover  %+v",
					i, reads[i], got[i], want[i])
			}
		}
		t.Fatal("post-failover reads diverge from pre-failover reads")
	}
	// Writes fail over too, and land on the promoted replica.
	res := rt.Execute(ctx, new(Scratch), []tabled.Op{
		{Op: "set", X: 1, Y: 1, V: "after"},
		{Op: "get", X: 1, Y: 1},
	}, "")
	if res[0].Err != "" || res[1].V != "after" {
		t.Fatalf("post-failover write/read = %+v", res)
	}
	if st := rt.Status(); st.Nodes[0].ReplicaState != "healthy" || !st.Nodes[0].ReplicaPromoted {
		t.Fatalf("status replica columns = %+v", st.Nodes[0])
	}
}

// TestUnpromotedReplicaServesReadsOnly: with the primary down and the
// replica alive but not promoted, reads route to the replica and writes
// fail fast with the awaiting-promotion error — never silently write to a
// follower.
func TestUnpromotedReplicaServesReadsOnly(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Health().CheckNow(ctx)

	res := rt.Execute(ctx, new(Scratch), []tabled.Op{{Op: "set", X: 2, Y: 3, V: "kept"}}, "")
	if res[0].Err != "" {
		t.Fatalf("seed write: %+v", res[0])
	}
	pair.waitCaughtUp(t)
	pair.primary.Close()
	rt.Health().CheckNow(ctx)
	if pri, rep, _ := rt.health.view(0); pri.state != StateDown || rep.promoted {
		t.Fatalf("states: primary=%v promoted=%v", pri.state, rep.promoted)
	}

	res = rt.Execute(ctx, new(Scratch), []tabled.Op{
		{Op: "get", X: 2, Y: 3},
		{Op: "set", X: 4, Y: 4, V: "no"},
	}, "")
	if res[0].Err != "" || !res[0].Found || res[0].V != "kept" {
		t.Fatalf("replica read = %+v", res[0])
	}
	if !IsUnavailable(res[1].Err) || !strings.Contains(res[1].Err, "not promoted") {
		t.Fatalf("unpromoted write Err = %q", res[1].Err)
	}
	// The ready detail names the covering replica.
	if ok, detail := rt.Health().Summary(); ok || !strings.Contains(detail, "replica serving reads") {
		t.Fatalf("summary = %v %q", ok, detail)
	}
}

// TestReloaderSwapsSpecLive: the front door follows a Reloader across a
// spec rewrite — traffic lands on the new topology with no handler or
// listener rebuild, and a broken edit leaves the old spec serving.
func TestReloaderSwapsSpecLive(t *testing.T) {
	a := startServer(t, 40, 40, tabled.ServerOptions{})
	b := startServer(t, 40, 40, tabled.ServerOptions{})
	specJSON := func(base string) string {
		return fmt.Sprintf(`{"mapping":"diagonal","nodes":[{"name":"n0","base":%q,"lo":1,"hi":1099511627776}]}`, base)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(specJSON(a.URL)), 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := NewReloader(path, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewHandler(rl, HandlerOptions{}))
	t.Cleanup(front.Close)
	c := &tabled.Client{Base: front.URL}
	ctx := context.Background()

	if err := c.Set(ctx, tabled.Cell[string]{X: 1, Y: 2, V: "on-a"}); err != nil {
		t.Fatal(err)
	}

	// A corrupt edit must not take the front door down.
	if err := os.WriteFile(path, []byte(`{"mapping":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rl.Reload(ctx); err == nil {
		t.Fatal("corrupt spec reloaded without error")
	}
	if v, found, err := c.Get(ctx, 1, 2); err != nil || !found || v != "on-a" {
		t.Fatalf("after corrupt reload: %q %v %v", v, found, err)
	}

	// The real swap: same handler, new member.
	if err := os.WriteFile(path, []byte(specJSON(b.URL)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rl.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if rl.Router().Spec().Nodes[0].Base != b.URL {
		t.Fatalf("live spec base = %q", rl.Router().Spec().Nodes[0].Base)
	}
	// Node B never saw the old write: proof traffic moved.
	if _, found, err := c.Get(ctx, 1, 2); err != nil || found {
		t.Fatalf("post-swap read = found=%v err=%v, want clean miss on b", found, err)
	}
	if err := c.Set(ctx, tabled.Cell[string]{X: 1, Y: 2, V: "on-b"}); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get(ctx, 1, 2); v != "on-b" {
		t.Fatalf("post-swap write landed elsewhere: %q", v)
	}

	// A reload with identical content is a no-op (same router survives).
	before := rl.Router()
	if err := rl.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if rl.Router() != before {
		t.Fatal("no-change reload rebuilt the router")
	}

	// /v1/cluster reflects the live spec.
	resp, err := http.Get(front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes[0].Base != b.URL {
		t.Fatalf("cluster status base = %q", st.Nodes[0].Base)
	}
}

// TestReloadKeepsWrittenPositions: a spec reload must not forget the
// writes the replaced router acknowledged. With the follower's pull
// stopped, a read right after the reload is still refused by the replica
// and served by the primary.
func TestReloadKeepsWrittenPositions(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	pair.stopPull()
	specJSON := func(hi int64) string {
		return fmt.Sprintf(`{"mapping":"diagonal","nodes":[{"name":"n0","base":%q,"replica":%q,"lo":1,"hi":%d}]}`,
			pair.primary.URL, pair.follower.URL, hi)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(specJSON(1<<40)), 0o644); err != nil {
		t.Fatal(err)
	}
	rl, err := NewReloader(path, Options{ReplicaReads: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rl.Router().Health().CheckNow(ctx)
	if r := rl.Router().Execute(ctx, new(Scratch), []tabled.Op{{Op: "set", X: 3, Y: 3, V: "acked"}}, ""); r[0].Err != "" {
		t.Fatalf("write: %+v", r[0])
	}
	if err := os.WriteFile(path, []byte(specJSON(1<<41)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rl.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if r := rl.Router().Execute(ctx, new(Scratch), []tabled.Op{{Op: "get", X: 3, Y: 3}}, ""); r[0].V != "acked" {
		t.Fatalf("read after reload = %+v, want the acknowledged write", r[0])
	}
}

// TestReloadKeepsEpochLatch: a reload that keeps a pair keeps its fence.
// The promoted replica (epoch 3) goes down while the stale primary
// (epoch 0) stays healthy, so no live member reports epoch 3 any more.
// After a reload that only moves a range boundary, the new checker still
// fences the primary on the latched 3. Naming another replica for the
// node starts a fresh latch: the operator's way to clear a fence.
func TestReloadKeepsEpochLatch(t *testing.T) {
	pri, rep, rep2 := newFakeMember(t), newFakeMember(t), newFakeMember(t)
	pri.status.Store(`{"role":"primary","epoch":0}`)
	rep.status.Store(`{"role":"primary","epoch":3}`)
	rep2.status.Store(`{"role":"follower","epoch":0}`)
	path := filepath.Join(t.TempDir(), "spec.json")
	writeSpec := func(hi int64, replica string) {
		t.Helper()
		spec := fmt.Sprintf(`{"mapping":"diagonal","nodes":[{"name":"n0","base":%q,"replica":%q,"lo":1,"hi":%d}]}`,
			pri.srv.URL, replica, hi)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpec(1<<40, rep.srv.URL)
	rl, err := NewReloader(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Router().Close() })
	ctx := context.Background()
	check := func(stage string, wantMax uint64, wantFenced bool) {
		t.Helper()
		pri, _, maxEpoch := rl.Router().health.view(0)
		if maxEpoch != wantMax || pri.fencedBy(maxEpoch) != wantFenced {
			t.Fatalf("%s: max epoch %d fenced %v, want %d %v",
				stage, maxEpoch, pri.fencedBy(maxEpoch), wantMax, wantFenced)
		}
	}
	rl.Router().Health().CheckNow(ctx)
	check("before the reload", 3, true)

	rep.mode.Store("down")
	writeSpec(1<<41, rep.srv.URL)
	if err := rl.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	check("after a boundary-only reload", 3, true)

	writeSpec(1<<41, rep2.srv.URL)
	if err := rl.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	check("after the replica was replaced", 0, false)
}

// TestJitteredInterval: every draw stays inside [interval/2, 3·interval/2)
// — the desynchronization window Run promises.
func TestJitteredInterval(t *testing.T) {
	c := NewChecker(&Spec{Mapping: "diagonal", Nodes: []NodeSpec{{Name: "n", Base: "http://x", Lo: 1, Hi: 2}}},
		CheckerOptions{Interval: 100 * time.Millisecond})
	for i := 0; i < 200; i++ {
		d := c.jitteredInterval()
		if d < 50*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("draw %d: %v outside [50ms, 150ms)", i, d)
		}
	}
}

// TestNewRejectsNonHTTPMember: members are reached over upgraded HTTP/1.1
// connections, so a base or replica that is not an http:// URL fails the
// router's construction instead of every sub-batch.
func TestNewRejectsNonHTTPMember(t *testing.T) {
	for _, n := range []NodeSpec{
		{Name: "n0", Base: "https://a:1", Lo: 1, Hi: 1 << 40},
		{Name: "n0", Base: "http://a:1", Replica: "a:2", Lo: 1, Hi: 1 << 40},
	} {
		if _, err := New(&Spec{Mapping: "diagonal", Nodes: []NodeSpec{n}}, Options{}); err == nil {
			t.Errorf("spec node %+v accepted", n)
		}
	}
}

func TestWithReplicas(t *testing.T) {
	mk := func() *Spec {
		s, err := EvenSpec("diagonal", []string{"http://a", "http://b", "http://c"}, 1<<20, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	if err := s.WithReplicas([]string{"http://ra", "", "http://rc"}); err != nil {
		t.Fatal(err)
	}
	if s.Nodes[0].Replica != "http://ra" || s.Nodes[1].Replica != "" || s.Nodes[2].Replica != "http://rc" {
		t.Fatalf("replicas = %+v", s.Nodes)
	}
	if err := mk().WithReplicas([]string{"r", "r", "r", "extra"}); err == nil {
		t.Fatal("extra replica entry accepted")
	}
	if err := mk().WithReplicas([]string{"http://a"}); err == nil {
		t.Fatal("replica equal to base accepted")
	}
}
