package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pairfn/internal/tabled"
)

// fakeMember is an httptest server whose /readyz answer is switchable.
// It answers /v1/repl/status with status once that is set.
type fakeMember struct {
	srv    *httptest.Server
	mode   atomic.Value // "healthy" | "degraded" | "down"
	status atomic.Value // a /v1/repl/status JSON body
}

func newFakeMember(t *testing.T) *fakeMember {
	t.Helper()
	m := &fakeMember{}
	m.mode.Store("healthy")
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if st, ok := m.status.Load().(string); ok && r.URL.Path == "/v1/repl/status" {
			w.Write([]byte(st))
			return
		}
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		switch m.mode.Load().(string) {
		case "healthy":
			w.Write([]byte("ready\n"))
		case "degraded":
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("degraded: read-only (WAL volume failed)\n"))
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(m.srv.Close)
	return m
}

func memberSpec(members ...*fakeMember) *Spec {
	s := &Spec{Mapping: "diagonal"}
	lo := int64(1)
	for i, m := range members {
		s.Nodes = append(s.Nodes, NodeSpec{
			Name: "node-" + string(rune('0'+i)), Base: m.srv.URL, Lo: lo, Hi: lo + 100,
		})
		lo += 100
	}
	return s
}

func TestCheckerStates(t *testing.T) {
	a, b, c := newFakeMember(t), newFakeMember(t), newFakeMember(t)
	spec := memberSpec(a, b, c)
	ck := NewChecker(spec, CheckerOptions{})

	// Optimistic start: everything reads healthy before the first sweep.
	for i := 0; i < 3; i++ {
		if st := ck.State(i); st != StateHealthy {
			t.Fatalf("initial State(%d) = %v", i, st)
		}
	}

	b.mode.Store("degraded")
	c.mode.Store("down")
	ck.CheckNow(context.Background())
	if ck.State(0) != StateHealthy || ck.State(1) != StateDegraded || ck.State(2) != StateDown {
		t.Fatalf("states = %v %v %v", ck.State(0), ck.State(1), ck.State(2))
	}
	ok, detail := ck.Summary()
	if ok || detail != "2/3 nodes unhealthy: node-1 degraded, node-2 down" {
		t.Fatalf("Summary = %v %q", ok, detail)
	}
	if got := ck.FirstHealthy(); got != 0 {
		t.Fatalf("FirstHealthy = %d", got)
	}

	// An unreachable server (connection refused) is down too.
	a.srv.Close()
	ck.CheckNow(context.Background())
	if ck.State(0) != StateDown {
		t.Fatalf("closed member State = %v, want down", ck.State(0))
	}
	// With no healthy member left the degraded one still anycasts reads.
	if got := ck.FirstHealthy(); got != 1 {
		t.Fatalf("FirstHealthy = %d, want the degraded member", got)
	}

	// Recovery flips back.
	b.mode.Store("healthy")
	c.mode.Store("healthy")
	ck.CheckNow(context.Background())
	if ck.State(1) != StateHealthy || ck.State(2) != StateHealthy {
		t.Fatalf("recovered states = %v %v", ck.State(1), ck.State(2))
	}
	if ok, _ := ck.Summary(); ok {
		t.Fatal("Summary healthy while node-0 is down")
	}
}

func TestCheckerAllDownFirstHealthyIsZero(t *testing.T) {
	a := newFakeMember(t)
	spec := memberSpec(a)
	ck := NewChecker(spec, CheckerOptions{})
	a.srv.Close()
	ck.CheckNow(context.Background())
	if got := ck.FirstHealthy(); got != 0 {
		t.Fatalf("FirstHealthy with everything down = %d, want 0", got)
	}
	ok, detail := ck.Summary()
	if ok || detail == "" {
		t.Fatalf("Summary = %v %q", ok, detail)
	}
}

// TestFirstHealthySkipsFencedPrimary: the anycast target is a healthy,
// unfenced primary. A healthy node fenced by a promotion it predates,
// whose replica is down, refuses everything — a dims sent there would
// fail although another member could answer it.
func TestFirstHealthySkipsFencedPrimary(t *testing.T) {
	n0 := startServer(t, 40, 40, tabled.ServerOptions{})
	n1 := startServer(t, 40, 40, tabled.ServerOptions{})
	dead := startServer(t, 40, 40, tabled.ServerOptions{})
	dead.Close()
	rt, err := New(&Spec{Mapping: "diagonal", Nodes: []NodeSpec{
		{Name: "n0", Base: n0.URL, Replica: dead.URL, Lo: 1, Hi: 100},
		{Name: "n1", Base: n1.URL, Lo: 100, Hi: 1 << 40},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	p := &rt.health.pairs[0]
	p.pri.Store(&observation{state: StateHealthy, hasEpoch: true}) // epoch 0
	p.max.Store(1)                                                 // a promotion at epoch 1 was seen

	if got := rt.health.FirstHealthy(); got != 1 {
		t.Fatalf("FirstHealthy = %d, want the unfenced node 1", got)
	}
	res := rt.Execute(context.Background(), new(Scratch), []tabled.Op{{Op: "dims"}}, "")
	if res[0].Err != "" || res[0].Rows != 40 {
		t.Fatalf("dims = %+v, want node 1's answer", res[0])
	}
}
