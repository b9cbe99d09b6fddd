package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/tabled"
)

// A member is a tabled server under test. Its Close stops it the way a
// dead process stops: the listener and every connection, the router's
// upgraded ones included, which httptest.Server.Close alone leaves
// serving (net/http forgets hijacked connections).
type member struct {
	*httptest.Server
	upgrades *srvkit.Upgrades
}

func startMember(t testing.TB, h http.Handler) *member {
	t.Helper()
	m := &member{Server: httptest.NewUnstartedServer(h)}
	m.upgrades = srvkit.TrackUpgrades(m.Config)
	m.Start()
	t.Cleanup(m.Close)
	return m
}

func (m *member) Close() {
	m.Server.Close()
	m.upgrades.Close(context.Background())
}

// startServer spins a real tabled server (sharded backend over the
// diagonal mapping) and returns its harness.
func startServer(t testing.TB, rows, cols int64, opt tabled.ServerOptions) *member {
	t.Helper()
	f, err := core.ByName("diagonal")
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() extarray.Store[string] { return extarray.NewSlabStore() }
	b, err := tabled.NewSharded[string](f, 4, newStore, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return startMember(t, tabled.NewHandler(b, opt))
}

// startCluster builds N member servers tiling [1, 1<<40) evenly plus a
// Router over them.
func startCluster(t testing.TB, n int, rows, cols int64, opt Options) (*Router, []*member) {
	t.Helper()
	members := make([]*member, n)
	bases := make([]string, n)
	for i := range members {
		members[i] = startServer(t, rows, cols, tabled.ServerOptions{})
		bases[i] = members[i].URL
	}
	spec, err := EvenSpec("diagonal", bases, 1<<20, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, members
}

// randomOps builds a seeded op mix touching every routing class: in-range
// sets/gets, boundary-adjacent positions, grows and shrinks, dims, stats,
// rejected positions, and unknown kinds (which the binary codec cannot
// carry: a binary caller maps them to dims).
func randomOps(rng *rand.Rand, n int, rows, cols int64) []tabled.Op {
	ops := make([]tabled.Op, n)
	for i := range ops {
		switch r := rng.Float64(); {
		case r < 0.40:
			ops[i] = tabled.Op{Op: "set",
				X: rng.Int63n(rows) + 1, Y: rng.Int63n(cols) + 1,
				V: fmt.Sprintf("v%d", rng.Intn(1000))}
		case r < 0.80:
			ops[i] = tabled.Op{Op: "get", X: rng.Int63n(rows) + 1, Y: rng.Int63n(cols) + 1}
		case r < 0.86:
			// Grow or shrink — broadcast, and shrinks delete cells (Moves).
			ops[i] = tabled.Op{Op: "resize",
				Rows: rows/2 + rng.Int63n(rows), Cols: cols/2 + rng.Int63n(cols)}
		case r < 0.90:
			ops[i] = tabled.Op{Op: "dims"}
		case r < 0.94:
			ops[i] = tabled.Op{Op: "stats"}
		case r < 0.97:
			// The mapping rejects non-positive positions: the error must come
			// back bit-identical to single-node execution.
			ops[i] = tabled.Op{Op: "set", X: -rng.Int63n(3), Y: rng.Int63n(cols) + 1, V: "bad"}
		default:
			ops[i] = tabled.Op{Op: "mystery"}
		}
	}
	return ops
}

// TestExecuteEquivalence quick-checks the tentpole property: partition +
// concurrent fan-out over the members' upgraded connections + merge is
// indistinguishable — per-op results, errors, stats — from running the
// same batch on one server. The batch enters through the router's front
// door in either client wire.
func TestExecuteEquivalence(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5} {
		for _, wire := range []string{tabled.WireJSON, tabled.WireBinary} {
			t.Run(fmt.Sprintf("nodes=%d/wire=%s", nodes, wire), func(t *testing.T) {
				const rows, cols = 40, 40
				rt, _ := startCluster(t, nodes, rows, cols, Options{})
				front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
				t.Cleanup(front.Close)
				fc := &tabled.Client{Base: front.URL, Wire: wire}
				direct := startServer(t, rows, cols, tabled.ServerOptions{})
				// The direct baseline always speaks JSON: the semantics under
				// test are the server's, not the wire's.
				dc := &tabled.Client{Base: direct.URL, Wire: tabled.WireJSON}
				rng := rand.New(rand.NewSource(int64(nodes)*100 + 7))
				ctx := context.Background()
				for round := 0; round < 8; round++ {
					ops := randomOps(rng, 60, rows, cols)
					if wire == tabled.WireBinary {
						for i := range ops {
							if ops[i].Op == "mystery" {
								ops[i] = tabled.Op{Op: "dims"}
							}
						}
					}
					want, err := dc.Batch(ctx, ops)
					if err != nil {
						t.Fatalf("round %d: direct batch: %v", round, err)
					}
					got, err := fc.Batch(ctx, ops)
					if err != nil {
						t.Fatalf("round %d: routed batch: %v", round, err)
					}
					if !reflect.DeepEqual(got, want) {
						for i := range got {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Errorf("round %d op %d %+v:\n  cluster %+v\n  direct  %+v",
									round, i, ops[i], got[i], want[i])
							}
						}
						t.Fatalf("round %d: cluster and direct results diverge", round)
					}
				}
			})
		}
	}
}

func TestExecuteOutOfRange(t *testing.T) {
	// A spec with a tiny address space: positions whose address lands past
	// the last range answer the typed error without touching any member.
	srv := startServer(t, 100, 100, tabled.ServerOptions{})
	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{Name: "solo", Base: srv.URL, Lo: 1, Hi: 10}}}
	rt, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Execute(context.Background(), new(Scratch), []tabled.Op{
		{Op: "get", X: 2, Y: 2},           // addr 5: in range
		{Op: "set", X: 30, Y: 30, V: "v"}, // addr ≫ 10: out of range
	}, "")
	if res[0].Err != "" {
		t.Fatalf("in-range op failed: %+v", res[0])
	}
	if !strings.Contains(res[1].Err, ErrOutOfRange.Error()) {
		t.Fatalf("out-of-range Err = %q", res[1].Err)
	}
}

func TestExecuteDownMemberFailsFast(t *testing.T) {
	rt, members := startCluster(t, 2, 40, 40, Options{})
	members[1].Close()
	rt.Health().CheckNow(context.Background())

	// Ops for the dead range fail with the unavailability class; the
	// surviving range keeps serving.
	live := tabled.Op{Op: "set", X: 1, Y: 1, V: "ok"} // addr 1 → node 0
	dead := tabled.Op{Op: "set", X: 900, Y: 900, V: "x"}
	if a := diagAddr(900, 900); a < 1<<19 {
		t.Fatalf("test op addr %d not in node 1's range", a)
	}
	res := rt.Execute(context.Background(), new(Scratch), []tabled.Op{live, dead}, "")
	if res[0].Err != "" || !res[0].OK {
		t.Fatalf("surviving-range op = %+v", res[0])
	}
	if !IsUnavailable(res[1].Err) {
		t.Fatalf("dead-range Err = %q, want unavailability class", res[1].Err)
	}
}

func TestExecuteDegradedMemberReadOnly(t *testing.T) {
	// Member 0 runs with Writable=false: its /readyz reports degraded and
	// its writes 503. After a sweep the router reads from it but fails its
	// writes fast with the typed read-only error.
	f, _ := core.ByName("diagonal")
	newStore := func() extarray.Store[string] { return extarray.NewSlabStore() }
	b, err := tabled.NewSharded[string](f, 4, newStore, 40, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	writable := obs.NewFlag(true)
	degradedSrv := startMember(t, tabled.NewHandler(b, tabled.ServerOptions{Writable: writable}))
	healthySrv := startServer(t, 40, 40, tabled.ServerOptions{})

	spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{
		{Name: "deg", Base: degradedSrv.URL, Lo: 1, Hi: 100},
		{Name: "ok", Base: healthySrv.URL, Lo: 100, Hi: 1 << 40},
	}}
	rt, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Seed a cell on the soon-degraded member while it is writable.
	res := rt.Execute(ctx, new(Scratch), []tabled.Op{{Op: "set", X: 1, Y: 1, V: "kept"}}, "")
	if res[0].Err != "" {
		t.Fatalf("seed set: %+v", res[0])
	}

	writable.Set(false)
	rt.Health().CheckNow(ctx)
	if rt.Health().State(0) != StateDegraded {
		t.Fatalf("state = %v, want degraded", rt.Health().State(0))
	}

	res = rt.Execute(ctx, new(Scratch), []tabled.Op{
		{Op: "get", X: 1, Y: 1},            // read from the degraded range: served
		{Op: "set", X: 1, Y: 2, V: "no"},   // write to it: typed fail-fast
		{Op: "set", X: 20, Y: 5, V: "yes"}, // addr 281 → healthy range write
	}, "")
	if res[0].Err != "" || !res[0].Found || res[0].V != "kept" {
		t.Fatalf("degraded-range read = %+v", res[0])
	}
	if !IsUnavailable(res[1].Err) || !strings.Contains(res[1].Err, "read-only") {
		t.Fatalf("degraded-range write Err = %q", res[1].Err)
	}
	if res[2].Err != "" {
		t.Fatalf("healthy-range write = %+v", res[2])
	}
}

// TestHandlerRoundTrips drives the full front door over both wires with a
// real tabled.Client — the handler must be wire-compatible with a single
// tabledserver.
func TestHandlerRoundTrips(t *testing.T) {
	for _, wire := range []string{tabled.WireJSON, tabled.WireBinary} {
		t.Run(wire, func(t *testing.T) {
			rt, _ := startCluster(t, 3, 40, 40, Options{})
			front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
			t.Cleanup(front.Close)
			c := &tabled.Client{Base: front.URL, Wire: wire}
			ctx := context.Background()

			if err := c.Set(ctx, tabled.Cell[string]{X: 3, Y: 4, V: "hello"}); err != nil {
				t.Fatal(err)
			}
			v, found, err := c.Get(ctx, 3, 4)
			if err != nil || !found || v != "hello" {
				t.Fatalf("Get = %q %v %v", v, found, err)
			}
			if err := c.Resize(ctx, 80, 80); err != nil {
				t.Fatal(err)
			}
			rows, cols, err := c.Dims(ctx)
			if err != nil || rows != 80 || cols != 80 {
				t.Fatalf("Dims = %d×%d, %v", rows, cols, err)
			}
			reply, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Info.Backend != "cluster" || reply.Info.Mapping != "diagonal" {
				t.Fatalf("stats info = %+v", reply.Info)
			}
			if reply.Info.Shards != 3*4 {
				t.Fatalf("aggregated shards = %d, want 12", reply.Info.Shards)
			}
		})
	}
}

func TestHandlerBadRequests(t *testing.T) {
	rt, _ := startCluster(t, 2, 40, 40, Options{})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{MaxBatch: 4}))
	t.Cleanup(front.Close)

	post := func(body, ct string) *http.Response {
		resp, err := http.Post(front.URL+"/v1/batch", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"ops":[]}`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
	if resp := post(`{nope`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", resp.StatusCode)
	}
	if resp := post("\x00\x01garbage-frame", tabled.ContentTypeBinary); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage binary status = %d", resp.StatusCode)
	}
	big, _ := json.Marshal(tabled.BatchRequest{Ops: make([]tabled.Op, 5)})
	if resp := post(string(big), "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-MaxBatch status = %d", resp.StatusCode)
	}
	over := strings.Repeat(" ", tabled.DefaultMaxBodyBytes+1)
	for _, ct := range []string{"application/json", tabled.ContentTypeBinary} {
		if resp := post(over, ct); resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
			t.Fatalf("over-cap %s body: status %d, close %v; want 413 closing the connection", ct, resp.StatusCode, resp.Close)
		}
	}
}

// TestHandlerLongIdempotencyKey: HTTP caps a client's Idempotency-Key only
// by the header block, so a 2 KB key must route like any other — and stay
// idempotent — although members refuse exchange keys over 1 KB.
func TestHandlerLongIdempotencyKey(t *testing.T) {
	rt, _ := startCluster(t, 2, 1000, 1000, Options{})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(front.Close)
	key := strings.Repeat("k", 2048)
	post := func(body string) tabled.BatchResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/batch", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tabled.IdempotencyKeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var br tabled.BatchResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		return br
	}
	// Two cells, one per member.
	batch := `{"ops":[{"op":"set","x":1,"y":1,"v":"first"},{"op":"set","x":900,"y":900,"v":"first"}]}`
	for _, r := range post(batch).Results {
		if r.Err != "" || !r.OK {
			t.Fatalf("long-key batch = %+v", r)
		}
	}
	// A retry under the same key replays; it must not apply its new values.
	post(strings.ReplaceAll(batch, "first", "retry"))
	c := &tabled.Client{Base: front.URL}
	for _, p := range [][2]int64{{1, 1}, {900, 900}} {
		if v, _, err := c.Get(context.Background(), p[0], p[1]); err != nil || v != "first" {
			t.Fatalf("get %v = %q, %v; want the first write", p, v, err)
		}
	}
}

func TestHandlerAllUnavailableIs503(t *testing.T) {
	rt, members := startCluster(t, 2, 40, 40, Options{})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(front.Close)
	for _, m := range members {
		m.Close()
	}
	rt.Health().CheckNow(context.Background())

	body, _ := json.Marshal(tabled.BatchRequest{Ops: []tabled.Op{{Op: "set", X: 1, Y: 1, V: "v"}}})
	resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down status = %d, want 503", resp.StatusCode)
	}
}

func TestHandlerRateLimit(t *testing.T) {
	rt, _ := startCluster(t, 1, 40, 40, Options{})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{
		Limiter: &Limiter{Limit: 2, Window: time.Hour},
	}))
	t.Cleanup(front.Close)
	body := `{"ops":[{"op":"dims"}]}`
	codes := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(front.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK || codes[2] != http.StatusTooManyRequests {
		t.Fatalf("codes = %v, want [200 200 429]", codes)
	}
	// Probes are not rate limited.
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d", resp.StatusCode)
	}
}

func TestHandlerClusterStatus(t *testing.T) {
	rt, members := startCluster(t, 3, 40, 40, Options{Registry: obs.NewRegistry()})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(front.Close)

	// Route something so the counters move, then kill a member.
	rt.Execute(context.Background(), new(Scratch), []tabled.Op{{Op: "set", X: 1, Y: 1, V: "v"}}, "")
	members[2].Close()
	rt.Health().CheckNow(context.Background())

	resp, err := http.Get(front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Mapping != "diagonal" || len(reply.Nodes) != 3 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Nodes[0].Lo != 1 || reply.Nodes[0].Ops < 1 {
		t.Fatalf("node 0 = %+v", reply.Nodes[0])
	}
	if reply.Nodes[2].State != "down" {
		t.Fatalf("node 2 state = %q, want down", reply.Nodes[2].State)
	}

	// /readyz stays 200 with the trouble in the detail text.
	rresp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(rresp.Body)
	if rresp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "1/3 nodes unhealthy") {
		t.Fatalf("readyz = %d %q", rresp.StatusCode, buf.String())
	}
}
