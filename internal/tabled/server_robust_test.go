package tabled

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
)

// newWALServer builds a full server with a WAL whose file handle is wrapped
// by fi (nil → no faults), returning the client and registry.
func newWALServer(t *testing.T, fi *FaultInjector, extra func(*ServerOptions)) (*Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 4)
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 64, 64, m)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenWAL(filepath.Join(t.TempDir(), "table.wal"),
		func(rec WALRecord) error { return ApplyWALRecord(table, rec) },
		WALOptions{Metrics: m, WrapFile: fi.WrapWALFile})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	opt := ServerOptions{Registry: reg, Metrics: m, Ready: obs.NewFlag(true), WAL: wal}
	if extra != nil {
		extra(&opt)
	}
	ts := httptest.NewServer(NewHandler(table, opt))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}, reg
}

func httpGet(t *testing.T, c *Client, path string) (int, string) {
	t.Helper()
	resp, err := c.HTTP.Get(c.Base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestServerDegradedMode is the end-to-end degraded-mode contract: a WAL
// sync failure refuses the write's ack, flips the server read-only (writes
// 503, reads 200, /readyz 503, tabled_degraded=1) instead of killing it.
func TestServerDegradedMode(t *testing.T) {
	fi := NewFaultInjector(&Faults{Seed: 1, SyncErrRate: 1})
	c, _ := newWALServer(t, fi, nil)
	ctx := context.Background()

	err := c.Set(ctx, Cell[string]{X: 1, Y: 1, V: "doomed"})
	if err == nil {
		t.Fatal("write acked despite WAL sync failure")
	}
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "503") {
		t.Fatalf("first write after WAL failure: %v, want a 503", err)
	}

	// Subsequent writes hit the read-only gate before touching the backend.
	err = c.Set(ctx, Cell[string]{X: 2, Y: 2, V: "rejected"})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("degraded write: %v, want read-only 503", err)
	}

	// Reads keep working (the unacked first write is visible in memory —
	// it was applied before the log failed; it would be truncated as a
	// torn/absent tail on restart, which is allowed for unacked writes).
	if _, _, err := c.Get(ctx, 5, 5); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if _, _, err := c.Dims(ctx); err != nil {
		t.Fatalf("dims while degraded: %v", err)
	}

	if code, body := httpGet(t, c, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "degraded") {
		t.Fatalf("/readyz while degraded: %d %q", code, body)
	}
	if _, body := httpGet(t, c, "/metrics"); !strings.Contains(body, "tabled_degraded 1") {
		t.Fatal("/metrics missing tabled_degraded 1")
	}
}

// TestServerIdempotentReplay: the same Idempotency-Key twice executes once;
// the retransmit gets the recorded response with the replay header.
func TestServerIdempotentReplay(t *testing.T) {
	c, _ := newWALServer(t, nil, nil)

	body := []byte(`{"ops":[{"op":"set","x":3,"y":3,"v":"once"}]}`)
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyKeyHeader, "test-key-1")
		resp, err := c.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := post()
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK || r1.Header.Get("Idempotent-Replay") != "" {
		t.Fatalf("first request: %d, replay=%q", r1.StatusCode, r1.Header.Get("Idempotent-Replay"))
	}
	r2 := post()
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || r2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("replayed request: %d, replay=%q", r2.StatusCode, r2.Header.Get("Idempotent-Replay"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replayed body differs: %s vs %s", b1, b2)
	}

	// Executed exactly once: one set op, one WAL append, one replay hit.
	_, metrics := httpGet(t, c, "/metrics")
	for _, want := range []string{
		`tabled_ops_total{op="set"} 1`,
		"tabled_wal_appends_total 1",
		"tabled_idempotent_replays_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestIdempotentReplayEveryWire: a keyed write acknowledged over any
// wire — JSON, binary HTTP or an exchange — is answered with its recorded
// 200 to a retry over every wire, even once the server is read-only: the
// replay is checked before the read-only gate, and the record (a §4
// frame) answers in the retry's wire, not the first request's.
func TestIdempotentReplayEveryWire(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	writable := obs.NewFlag(true)
	ts, _, p := startConnServer(t, newConnTable(t, m), ServerOptions{Registry: reg, Metrics: m, Writable: writable})
	jc := &Client{Base: ts.URL, HTTP: ts.Client()}
	bc := &Client{Base: ts.URL, HTTP: ts.Client(), Wire: WireBinary}
	wires := []struct {
		name  string
		batch func(context.Context, []Op, string) ([]OpResult, error)
	}{{"json", jc.BatchWithKey}, {"binary", bc.BatchWithKey}, {"exchange", p.BatchWithKey}}
	ctx := context.Background()
	ops := make([][]Op, len(wires))
	acked := make([][]string, len(wires))
	for i, w := range wires {
		x := int64(i + 1)
		ops[i] = []Op{{Op: "set", X: x, Y: x, V: "via " + w.name}, {Op: "get", X: x, Y: x}}
		res, err := w.batch(ctx, ops[i], "key-"+w.name)
		if err != nil {
			t.Fatalf("%s write: %v", w.name, err)
		}
		acked[i] = deref(res)
	}
	writable.Set(false)
	for i, first := range wires {
		for _, retry := range wires {
			res, err := retry.batch(ctx, ops[i], "key-"+first.name)
			if err != nil {
				t.Errorf("%s retry of a %s write: %v", retry.name, first.name, err)
				continue
			}
			if got := deref(res); fmt.Sprint(got) != fmt.Sprint(acked[i]) {
				t.Errorf("%s retry of a %s write = %v, want the recorded %v", retry.name, first.name, got, acked[i])
			}
		}
	}
	if n := reg.Counter("tabled_idempotent_replays_total").Value(); n != 9 {
		t.Errorf("tabled_idempotent_replays_total = %d, want 9", n)
	}
}

// TestIdempotencyRecordsOnlyWrites: keyed reads are never recorded, so
// more of them than the cache holds cannot evict a write's record — a
// retry of the write still replays instead of executing again.
func TestIdempotencyRecordsOnlyWrites(t *testing.T) {
	table := newConnTable(t, nil)
	ts, _, _ := startConnServer(t, table, ServerOptions{})
	jc := &Client{Base: ts.URL, HTTP: ts.Client()}
	bc := &Client{Base: ts.URL, HTTP: ts.Client(), Wire: WireBinary}
	ctx := context.Background()
	first := []Op{{Op: "set", X: 1, Y: 1, V: "first"}}
	if _, err := bc.BatchWithKey(ctx, first, "write-1"); err != nil {
		t.Fatal(err)
	}
	if err := bc.Set(ctx, Cell[string]{X: 1, Y: 1, V: "later"}); err != nil {
		t.Fatal(err)
	}
	// Client.Get mints a fresh key per batch; alternate the HTTP arms.
	for i := 0; i <= DefaultIdempotencyCache; i++ {
		c := jc
		if i%2 == 1 {
			c = bc
		}
		if _, _, err := c.Get(ctx, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bc.BatchWithKey(ctx, first, "write-1"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := table.Get(1, 1); v != "later" {
		t.Fatalf("retried write executed again: cell = %q, want %q", v, "later")
	}
}

func TestIdemCacheBounded(t *testing.T) {
	c := newIdemCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.put("a", []byte("ignored-dup")) // dedup, no double entry
	c.put("c", []byte("3"))           // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest key not evicted")
	}
	if v, ok := c.get("b"); !ok || string(v) != "2" {
		t.Fatalf("b: %q %v", v, ok)
	}
	if v, ok := c.get("c"); !ok || string(v) != "3" {
		t.Fatalf("c: %q %v", v, ok)
	}
}

// TestServerBodyLimit: a body over DefaultMaxBodyBytes is a 413, which
// the client surfaces as a permanent (non-retried) remote error. A body
// of unknown length is cut exactly at the cap.
func TestServerBodyLimit(t *testing.T) {
	c, _ := newWALServer(t, nil, nil)
	err := c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: strings.Repeat("x", DefaultMaxBodyBytes)})
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized body: %v, want 413", err)
	}
	// Within the limit still works.
	if err := c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "small"}); err != nil {
		t.Fatal(err)
	}
	batch := `{"ops":[{"op":"dims"}]}`
	for _, tc := range []struct {
		size   int
		status int
	}{{DefaultMaxBodyBytes, http.StatusOK}, {DefaultMaxBodyBytes + 1, http.StatusRequestEntityTooLarge}} {
		// A reader the client cannot size is sent chunked, with no
		// Content-Length to refuse up front.
		body := io.MultiReader(strings.NewReader(batch), strings.NewReader(strings.Repeat(" ", tc.size-len(batch))))
		resp, err := c.HTTP.Post(c.Base+"/v1/batch", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || resp.Close != (tc.status != http.StatusOK) {
			t.Errorf("chunked body of %d bytes: %d, close %v; want %d, closing the connection only on a 413",
				tc.size, resp.StatusCode, resp.Close, tc.status)
		}
	}
}

// TestServerBatchTimeout: a handler overrunning BatchTimeout is cut off
// with a 503 — injected backend latency stands in for a stuck disk.
func TestServerBatchTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := NewFaultInjector(&Faults{Seed: 1, Latency: 200 * time.Millisecond}).WrapBackend(table)
	ts := httptest.NewServer(NewHandler(slow, ServerOptions{
		Registry: reg, Ready: obs.NewFlag(true), BatchTimeout: 20 * time.Millisecond,
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	err = c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("slow batch: %v, want 503 from the timeout handler", err)
	}
}

// TestClientRetries: the retrying client survives transient 503s and
// transport-level flakiness, reusing one idempotency key across attempts;
// 4xx is permanent and never retried.
func TestClientRetries(t *testing.T) {
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	real := NewHandler(table, ServerOptions{Ready: obs.NewFlag(true)})

	var attempts atomic.Int64
	var mu sync.Mutex
	var keys []string
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			mu.Lock()
			keys = append(keys, r.Header.Get(IdempotencyKeyHeader))
			mu.Unlock()
			if attempts.Add(1) <= 2 {
				http.Error(w, "transient", http.StatusServiceUnavailable)
				return
			}
		}
		real.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	pol := &retry.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 5}
	c := &Client{Base: ts.URL, HTTP: ts.Client(), Retry: pol}
	ctx := context.Background()

	if err := c.Set(ctx, Cell[string]{X: 1, Y: 1, V: "persisted"}); err != nil {
		t.Fatalf("retried set: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two 503s then success)", got)
	}
	mu.Lock()
	seen := append([]string(nil), keys...)
	mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("recorded %d batch attempts, want 3", len(seen))
	}
	for _, k := range seen {
		if k == "" || k != seen[0] {
			t.Fatalf("idempotency key not reused across retries: %q vs %q", k, seen[0])
		}
	}
	if v, found, err := c.Get(ctx, 1, 1); err != nil || !found || v != "persisted" {
		t.Fatalf("after retries: %q %v %v", v, found, err)
	}

	// Malformed JSON is rejected with a 400 by the real handler.
	resp, err := c.HTTP.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: %d", resp.StatusCode)
	}
}

// TestClientRetryExhaustion: a server that never recovers exhausts
// MaxAttempts and returns the last 503.
func TestClientRetryExhaustion(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	pol := &retry.Policy{Base: time.Millisecond, Max: 2 * time.Millisecond, MaxAttempts: 3}
	c := &Client{Base: ts.URL, HTTP: ts.Client(), Retry: pol}
	err := c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("exhausted retries: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestClientPermanent4xx: client errors are not retried.
func TestClientPermanent4xx(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer ts.Close()
	pol := &retry.Policy{Base: time.Millisecond, MaxAttempts: 5}
	c := &Client{Base: ts.URL, HTTP: ts.Client(), Retry: pol}
	err := c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"})
	if err == nil {
		t.Fatal("400 should surface as an error")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (4xx is permanent)", got)
	}
}

// TestServerWALDurability: acked writes through the HTTP API survive a
// server "crash" (drop everything, reopen the WAL into a fresh table).
func TestServerWALDurability(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "table.wal")
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 4)
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 64, 64, m)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenWAL(walPath, func(rec WALRecord) error { return ApplyWALRecord(table, rec) },
		WALOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(table, ServerOptions{
		Registry: reg, Metrics: m, Ready: obs.NewFlag(true), WAL: wal,
	}))
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()
	for i := int64(1); i <= 10; i++ {
		if err := c.Set(ctx, Cell[string]{X: i, Y: i, V: "durable"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Resize(ctx, 128, 64); err != nil {
		t.Fatal(err)
	}
	// Crash: no snapshot, no graceful close of anything but the listener.
	ts.Close()
	wal.Close()

	recovered, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2, replayed, err := OpenWAL(walPath, func(rec WALRecord) error { return ApplyWALRecord(recovered, rec) }, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if replayed != 11 {
		t.Fatalf("replayed %d records, want 11", replayed)
	}
	for i := int64(1); i <= 10; i++ {
		if v, ok, _ := recovered.Get(i, i); !ok || v != "durable" {
			t.Fatalf("acked write (%d,%d) lost after crash: %q %v", i, i, v, ok)
		}
	}
	if r, _ := recovered.Dims(); r != 128 {
		t.Fatalf("rows after recovery = %d, want 128", r)
	}
}
