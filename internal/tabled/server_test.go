package tabled

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
)

func newTestServer(t *testing.T, snapshotPath string) (*Client, *Sharded[string], *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 64, 64, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := ServerOptions{Registry: reg, Metrics: m, Ready: obs.NewFlag(true)}
	if snapshotPath != "" {
		opt.Snapshot = func() error { return table.SaveFileAt(snapshotPath, 0, 0) }
	}
	ts := httptest.NewServer(NewHandler(table, opt))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}, table, reg
}

// TestServerBatchRoundTrip drives the full client → HTTP → backend loop:
// mixed batch with set, get, resize, dims, stats in one request.
func TestServerBatchRoundTrip(t *testing.T) {
	c, _, _ := newTestServer(t, "")
	ctx := context.Background()

	res, err := c.Batch(ctx, []Op{
		{Op: "set", X: 1, Y: 2, V: "alpha"},
		{Op: "set", X: 3, Y: 4, V: "beta"},
		{Op: "get", X: 1, Y: 2},
		{Op: "get", X: 9, Y: 9},
		{Op: "resize", Rows: 128, Cols: 64},
		{Op: "dims"},
		{Op: "stats"},
		{Op: "get", X: 100, Y: 1}, // in bounds only after the resize
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK || !res[1].OK {
		t.Fatalf("sets failed: %+v", res[:2])
	}
	if !res[2].Found || res[2].V != "alpha" {
		t.Fatalf("get: %+v", res[2])
	}
	if res[3].Found {
		t.Fatalf("unset cell reported found: %+v", res[3])
	}
	if !res[4].OK {
		t.Fatalf("resize: %+v", res[4])
	}
	if res[5].Rows != 128 || res[5].Cols != 64 {
		t.Fatalf("dims: %+v", res[5])
	}
	if res[6].Stats == nil || res[6].Stats.Reshapes != 1 {
		t.Fatalf("stats: %+v", res[6])
	}
	if res[7].Err != "" {
		t.Fatalf("get after resize: %+v", res[7])
	}

	// Typed helpers.
	if err := c.Set(ctx, Cell[string]{X: 5, Y: 5, V: "gamma"}); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get(ctx, 5, 5); err != nil || !found || v != "gamma" {
		t.Fatalf("client Get: %q %v %v", v, found, err)
	}
	if rows, cols, err := c.Dims(ctx); err != nil || rows != 128 || cols != 64 {
		t.Fatalf("client Dims: %d %d %v", rows, cols, err)
	}
	reply, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Info.Backend != "sharded" || reply.Info.Shards != 8 || reply.Info.Mapping != "square-shell" {
		t.Fatalf("stats info: %+v", reply.Info)
	}
}

// TestServerErrors pins the API error surface: per-op errors ride in
// results with HTTP 200; malformed requests and oversized batches are 400s.
func TestServerErrors(t *testing.T) {
	c, _, _ := newTestServer(t, "")
	ctx := context.Background()

	res, err := c.Batch(ctx, []Op{
		{Op: "get", X: 0, Y: 0},
		{Op: "set", X: 1 << 62, Y: 1 << 62, V: "x"},
		{Op: "flip", X: 1, Y: 1},
		{Op: "get", X: 1, Y: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res[i].Err == "" {
			t.Errorf("op %d should have errored: %+v", i, res[i])
		}
	}
	if res[3].Err != "" { // batch continues past per-op failures
		t.Errorf("trailing valid op failed: %+v", res[3])
	}

	if _, err := c.Batch(ctx, nil); err == nil {
		t.Error("empty batch should be rejected")
	}
	big := make([]Op, DefaultMaxBatch+1)
	for i := range big {
		big[i] = Op{Op: "dims"}
	}
	if _, err := c.Batch(ctx, big); err == nil {
		t.Error("oversized batch should be rejected")
	}

	resp, err := c.HTTP.Post(c.Base+"/v1/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

// TestServerSnapshotEndpoint saves via POST /v1/snapshot and reloads the
// file; without configuration the endpoint is 501.
func TestServerSnapshotEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.gob")
	c, table, _ := newTestServer(t, path)
	ctx := context.Background()
	if err := c.Set(ctx, Cell[string]{X: 7, Y: 7, V: "persist-me"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := LoadShardedFileMeta[string](path, table.Mapping(), 8, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := l.Get(7, 7); err != nil || !ok || v != "persist-me" {
		t.Fatalf("reloaded: %q %v %v", v, ok, err)
	}

	cNoSnap, _, _ := newTestServer(t, "")
	if err := cNoSnap.Snapshot(ctx); err == nil {
		t.Error("snapshot without configuration should fail (501)")
	}
}

// TestServerObservability checks the operational surface: /metrics carries
// tabled_* and http_* families after traffic, /healthz is 200, /readyz
// flips to 503 when the flag drops.
func TestServerObservability(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 4)
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 16, 16, m)
	if err != nil {
		t.Fatal(err)
	}
	ready := obs.NewFlag(true)
	ts := httptest.NewServer(NewHandler(table, ServerOptions{Registry: reg, Metrics: m, Ready: ready}))
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	if err := c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"tabled_ops_total{op=\"set\"} 1",
		"tabled_ops_total{op=\"get\"} 1",
		"tabled_shard_ops_total",
		"tabled_batch_cells",
		"http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz ready: %d", code)
	}
	ready.Set(false)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz draining: %d", code)
	}
}

// TestServerConcurrentClients is the race-detector pass over the full HTTP
// stack: many clients batching sets/gets while one resizes.
func TestServerConcurrentClients(t *testing.T) {
	c, _, _ := newTestServer(t, "")
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch {
				case w == 0 && i%10 == 9:
					if err := c.Resize(ctx, int64(64+i), 64); err != nil {
						t.Error(err)
					}
				case w%2 == 0:
					ops := make([]Op, 8)
					for k := range ops {
						ops[k] = Op{Op: "set", X: int64(k%16 + 1), Y: int64(w*4 + 1), V: "v"}
					}
					if _, err := c.Batch(ctx, ops); err != nil {
						t.Error(err)
					}
				default:
					keys := make([]Pos, 8)
					for k := range keys {
						keys[k] = Pos{X: int64(k + 1), Y: int64(w + 1)}
					}
					if _, err := c.GetBatch(ctx, keys); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServeEndedAckWait: a write whose request ends while it waits for
// the replication ack is refused with the context's error, not as a WAL
// failure. The node stays writable, and only a gate timeout counts as an
// ack timeout.
func TestServeEndedAckWait(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want string
	}{
		{"canceled", canceled, "batch canceled awaiting the replication ack"},
		{"deadline", expired, "batch timed out awaiting the replication ack"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			m := NewMetrics(reg, 8)
			wal := openTestWAL(t, nil)
			// No follower advances the gate, and its timeout is never reached.
			s := &server{b: newConnTable(t, m), idem: newIdemCache(8), opt: ServerOptions{
				WAL: wal, Writable: obs.NewFlag(true), Metrics: m,
				Repl: &Repl{WAL: wal, Gate: &ReplGate{Timeout: time.Hour}},
			}}
			rep := s.serve(tc.ctx, "", 0, []Op{{Op: "set", X: 1, Y: 1, V: "v"}}, new(wireScratch))
			if rep.status != http.StatusServiceUnavailable || !strings.HasPrefix(rep.msg, tc.want) {
				t.Fatalf("serve = %d %q, want 503 %q", rep.status, rep.msg, tc.want)
			}
			if !s.opt.Writable.Get() {
				t.Fatal("an ended ack wait made the node read-only")
			}
			if n := reg.Counter("tabled_repl_ack_waits_total").Value(); n != 1 {
				t.Fatalf("ack waits = %d, want 1", n)
			}
			if n := reg.Counter("tabled_repl_ack_timeouts_total").Value(); n != 0 {
				t.Fatalf("ack timeouts = %d, want 0", n)
			}
		})
	}
}
