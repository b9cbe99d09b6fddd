package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pairfn/internal/obs"
	"pairfn/internal/tabled"
)

func promote(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+tabled.PromotePath, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote = %d", resp.StatusCode)
	}
}

// TestFencedPrimaryFailsOver is the split-brain drill at the router: the
// follower is promoted while the old primary is STILL ALIVE and healthy.
// The checker must observe the epoch fork and fence the old primary —
// every op, writes first, routes to the promoted node; nothing lands on
// the stale one.
func TestFencedPrimaryFailsOver(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Health().CheckNow(ctx)

	for _, r := range rt.Execute(ctx, new(Scratch), []tabled.Op{{Op: "set", X: 1, Y: 1, V: "before"}}, "") {
		if r.Err != "" {
			t.Fatalf("pre-fork write: %+v", r)
		}
	}
	pair.waitCaughtUp(t)
	if pri, _, maxEpoch := rt.health.view(0); !pri.hasEpoch || pri.epoch != 0 || maxEpoch != 0 {
		t.Fatalf("pre-fork epochs = %d (ok=%v) / %d", pri.epoch, pri.hasEpoch, maxEpoch)
	}

	// The operator promotes the follower; the old primary is not dead,
	// just cut off from the operator's view — the classic fencing hazard.
	promote(t, pair.follower.URL)
	rt.Health().CheckNow(ctx)
	if pri, _, maxEpoch := rt.health.view(0); !pri.fencedBy(maxEpoch) {
		t.Fatalf("primary not fenced: epoch %d, max %d", pri.epoch, maxEpoch)
	}

	// Writes flow — to the promoted replica, never the stale primary.
	res := rt.Execute(ctx, new(Scratch), []tabled.Op{
		{Op: "set", X: 2, Y: 2, V: "after"},
		{Op: "get", X: 2, Y: 2},
		{Op: "get", X: 1, Y: 1},
	}, "")
	if res[0].Err != "" || res[1].V != "after" || res[2].V != "before" {
		t.Fatalf("post-fence batch = %+v", res)
	}
	pc := &tabled.Client{Base: pair.primary.URL}
	if _, found, err := pc.Get(ctx, 2, 2); err != nil || found {
		t.Fatalf("stale primary saw the fenced write: found=%v err=%v", found, err)
	}

	st := rt.Status()
	if !st.Nodes[0].Fenced || st.Nodes[0].Epoch != 0 || st.Nodes[0].MaxEpoch != 1 {
		t.Fatalf("status = %+v", st.Nodes[0])
	}
	if _, detail := rt.Health().Summary(); !strings.Contains(detail, "fenced") {
		t.Fatalf("summary detail = %q", detail)
	}
}

// TestFencedPrimaryNoReplicaIs409: with the promoted node gone, a fenced
// primary must refuse EVERYTHING — its data may predate the fork, so even
// reads are wrong — and the front door reports the all-fenced batch as a
// typed 409, not a retryable 503.
func TestFencedPrimaryNoReplicaIs409(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	promote(t, pair.follower.URL)
	rt.Health().CheckNow(ctx) // latches max epoch 1 from the promoted node
	pair.follower.Close()
	rt.Health().CheckNow(ctx) // replica now down; fencing must persist

	if pri, _, maxEpoch := rt.health.view(0); !pri.fencedBy(maxEpoch) {
		t.Fatal("fencing lost when the promoted node went down")
	}
	res := rt.Execute(ctx, new(Scratch), []tabled.Op{
		{Op: "set", X: 1, Y: 1, V: "x"},
		{Op: "get", X: 1, Y: 1},
	}, "")
	for i, r := range res {
		if !IsFenced(r.Err) {
			t.Fatalf("op %d err = %q, want fenced refusal", i, r.Err)
		}
	}

	h := NewHandler(rt, HandlerOptions{})
	body := `{"ops":[{"op":"set","x":1,"y":1,"v":"x"}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "fenced") {
		t.Fatalf("front door = %d %q, want 409 fenced", rec.Code, rec.Body.String())
	}
}

// TestReplicaReads: with -replica-reads on and the replica caught up,
// all-get sub-batches are served by the replica — bit-identically — while
// anything containing a write stays on the primary.
func TestReplicaReads(t *testing.T) {
	const rows, cols = 40, 40
	pair := startReplPair(t, rows, cols)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{Registry: obs.NewRegistry(), ReplicaReads: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Health().CheckNow(ctx)

	var writes, reads []tabled.Op
	for i := 0; i < 30; i++ {
		x, y := int64(i%8+1), int64(i/8+1)
		writes = append(writes, tabled.Op{Op: "set", X: x, Y: y, V: fmt.Sprintf("v%d", i)})
		reads = append(reads, tabled.Op{Op: "get", X: x, Y: y})
	}
	for _, r := range rt.Execute(ctx, new(Scratch), writes, "") {
		if r.Err != "" {
			t.Fatalf("write: %+v", r)
		}
	}
	want := rt.Execute(ctx, new(Scratch), reads, "") // replica may or may not be caught up yet
	for _, r := range want {
		if r.Err != "" {
			t.Fatalf("read: %+v", r)
		}
	}
	pair.waitCaughtUp(t)
	rt.Health().CheckNow(ctx) // observe zero lag

	if _, rep, _ := rt.health.view(0); rep.lag != 0 {
		t.Fatalf("caught-up replica lag = %d", rep.lag)
	}
	before := rt.m.repReads.Value()
	got := rt.Execute(ctx, new(Scratch), reads, "")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replica reads diverge from primary reads")
	}
	offloaded := rt.m.repReads.Value() - before
	if offloaded != int64(len(reads)) {
		t.Fatalf("offloaded %d of %d reads", offloaded, len(reads))
	}

	// A batch with one write in it must stay on the primary wholesale.
	before = rt.m.repReads.Value()
	mixed := append([]tabled.Op{{Op: "set", X: 1, Y: 1, V: "w"}}, reads[:5]...)
	for _, r := range rt.Execute(ctx, new(Scratch), mixed, "") {
		if r.Err != "" {
			t.Fatalf("mixed batch: %+v", r)
		}
	}
	if n := rt.m.repReads.Value() - before; n != 0 {
		t.Fatalf("mixed batch offloaded %d reads", n)
	}

	// Promoted replica: offload must stop (it is a primary now, serving
	// its own writes; routing "replica reads" to it would double-count).
	promote(t, pair.follower.URL)
	rt.Health().CheckNow(ctx)
	before = rt.m.repReads.Value()
	_ = rt.Execute(ctx, new(Scratch), reads[:5], "")
	if n := rt.m.repReads.Value() - before; n != 0 {
		t.Fatalf("offloaded %d reads to a promoted replica", n)
	}
}

// TestReplicaReadsSeeOwnWrites: a read the router offloads must see every
// write the router acknowledged, however far behind the replica is and
// whatever lag the last sweep reported. The follower's pull is stopped
// after a sweep saw it at lag 0, so the checker keeps vouching for a
// replica that misses every later write — the window a lag gate alone
// leaves open. The replica must refuse the reads as behind, and the
// primary must serve them.
func TestReplicaReadsSeeOwnWrites(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{Registry: obs.NewRegistry(), ReplicaReads: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx := context.Background()
	rt.Health().CheckNow(ctx)
	pair.stopPull()
	rt.Health().CheckNow(ctx)
	if _, rep, _ := rt.health.view(0); rep.lag != 0 {
		t.Fatalf("stopped replica reported lag %d, want the stale 0", rep.lag)
	}

	var writes, reads []tabled.Op
	for i := 0; i < 12; i++ {
		x, y := int64(i%4+1), int64(i/4+1)
		writes = append(writes, tabled.Op{Op: "set", X: x, Y: y, V: fmt.Sprintf("v%d", i)})
		reads = append(reads, tabled.Op{Op: "get", X: x, Y: y})
	}
	for round := 0; round < 3; round++ {
		for i := range writes {
			writes[i].V = fmt.Sprintf("r%d-v%d", round, i)
		}
		for _, r := range rt.Execute(ctx, new(Scratch), writes, "") {
			if r.Err != "" {
				t.Fatalf("write: %+v", r)
			}
		}
		offloaded, behind := rt.m.repReads.Value(), rt.m.repBehind.Value()
		for i, r := range rt.Execute(ctx, new(Scratch), reads, "") {
			if r.Err != "" || !r.Found || r.V != writes[i].V {
				t.Fatalf("round %d: read %d = %+v, want the acknowledged %q", round, i, r, writes[i].V)
			}
		}
		if n := rt.m.repReads.Value() - offloaded; n != 0 {
			t.Fatalf("round %d: %d reads served by a replica missing the writes", round, n)
		}
		if n := rt.m.repBehind.Value() - behind; n != int64(len(reads)) {
			t.Fatalf("round %d: %d reads refused as behind, want %d", round, n, len(reads))
		}
	}
}

// TestReplicaReadsLagGate: a replica lagging past ReplicaReadMaxLag keeps
// reads on the primary until the next sweep sees it caught back up. The
// lag observation is planted directly in the checker's slot — creating
// real sustained lag against a long-polling follower is a timing game —
// so this pins exactly the callNode gate: lag > threshold stays home,
// lag ≤ threshold offloads.
func TestReplicaReadsLagGate(t *testing.T) {
	pair := startReplPair(t, 40, 40)
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
		Name: "n0", Base: pair.primary.URL, Replica: pair.follower.URL, Lo: 1, Hi: 1 << 40,
	}}}
	rt, err := New(spec, Options{Registry: obs.NewRegistry(), ReplicaReads: true, ReplicaReadMaxLag: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, r := range rt.Execute(ctx, new(Scratch), []tabled.Op{{Op: "set", X: 1, Y: 1, V: "v"}}, "") {
		if r.Err != "" {
			t.Fatalf("write: %+v", r)
		}
	}
	pair.waitCaughtUp(t)
	rt.Health().CheckNow(ctx)

	read := []tabled.Op{{Op: "get", X: 1, Y: 1}}
	offloads := func() int64 {
		before := rt.m.repReads.Value()
		for _, r := range rt.Execute(ctx, new(Scratch), read, "") {
			if r.Err != "" || r.V != "v" {
				t.Fatalf("read = %+v", r)
			}
		}
		return rt.m.repReads.Value() - before
	}
	if n := offloads(); n != 1 {
		t.Fatalf("caught-up replica offloaded %d reads, want 1", n)
	}
	setLag := func(lag uint64) {
		o := *rt.health.pairs[0].rep.Load()
		o.lag = lag
		rt.health.pairs[0].rep.Store(&o)
	}
	setLag(6) // one past the threshold
	if n := offloads(); n != 0 {
		t.Fatalf("lagging replica offloaded %d reads, want 0", n)
	}
	setLag(5) // exactly at the threshold
	if n := offloads(); n != 1 {
		t.Fatalf("at-threshold replica offloaded %d reads, want 1", n)
	}
}
