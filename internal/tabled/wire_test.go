package tabled

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
)

// TestServerWireBinaryRoundTrip drives the full binary loop — client
// encode → HTTP → content negotiation → zero-alloc server path → binary
// response → client decode — with a mixed batch, and checks a JSON client
// against the same server sees identical results (negotiation, not
// configuration, selects the codec).
func TestServerWireBinaryRoundTrip(t *testing.T) {
	jc, _, _ := newTestServer(t, "")
	bc := &Client{Base: jc.Base, HTTP: jc.HTTP, Wire: WireBinary}
	ctx := context.Background()

	ops := []Op{
		{Op: "set", X: 1, Y: 2, V: "alpha"},
		{Op: "set", X: 3, Y: 4, V: "beta"},
		{Op: "get", X: 1, Y: 2},
		{Op: "get", X: 9, Y: 9},
		{Op: "resize", Rows: 128, Cols: 64},
		{Op: "dims"},
		{Op: "stats"},
		{Op: "get", X: 100, Y: 1}, // in bounds only after the resize
	}
	res, err := bc.Batch(ctx, ops)
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
	if res[5].Rows != 128 || res[5].Cols != 64 {
		t.Fatalf("dims: %+v", res[5])
	}
	if res[6].Stats == nil {
		t.Fatalf("stats: %+v", res[6])
	}

	// The JSON client reads exactly what the binary client wrote.
	v, found, err := jc.Get(ctx, 1, 2)
	if err != nil || !found || v != "alpha" {
		t.Fatalf("JSON read-back of binary write: %q %v %v", v, found, err)
	}
	// And vice versa.
	if err := jc.Set(ctx, Cell[string]{X: 5, Y: 5, V: "json-written"}); err != nil {
		t.Fatal(err)
	}
	v, found, err = bc.Get(ctx, 5, 5)
	if err != nil || !found || v != "json-written" {
		t.Fatalf("binary read-back of JSON write: %q %v %v", v, found, err)
	}
}

// TestServerWireBinaryValueOwnership pins the copy-on-set contract: the
// decoded set value aliases a pooled request buffer, so the backend MUST
// copy it before storing. Many later requests (which reuse and overwrite
// the same pooled scratch) must not corrupt earlier stored values.
func TestServerWireBinaryValueOwnership(t *testing.T) {
	jc, _, _ := newTestServer(t, "")
	bc := &Client{Base: jc.Base, HTTP: jc.HTTP, Wire: WireBinary}
	ctx := context.Background()

	if err := bc.Set(ctx, Cell[string]{X: 1, Y: 1, V: "must-survive-scratch-reuse"}); err != nil {
		t.Fatal(err)
	}
	// Hammer the pooled scratch with different bytes at the same offsets.
	for i := 0; i < 50; i++ {
		if err := bc.Set(ctx, Cell[string]{X: 2, Y: 2, V: strings.Repeat("x", 30) + fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, found, err := bc.Get(ctx, 1, 1)
	if err != nil || !found || v != "must-survive-scratch-reuse" {
		t.Fatalf("stored value corrupted by scratch reuse: %q %v %v", v, found, err)
	}
}

// TestServerWireBinaryErrors checks the binary arm's error statuses: a
// corrupt frame and an oversized op count are 400s, and a write while
// degraded is a 503 — all as plain-text errors a binary client surfaces.
func TestServerWireBinaryErrors(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 64, 64, m)
	if err != nil {
		t.Fatal(err)
	}
	writable := obs.NewFlag(true)
	ts := httptest.NewServer(NewHandler(table, ServerOptions{
		Registry: reg, Metrics: m, Ready: obs.NewFlag(true),
		MaxBatch: 4, Writable: writable,
	}))
	t.Cleanup(ts.Close)

	post := func(body []byte) (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeBinary)
		return ts.Client().Do(req)
	}

	frame, err := AppendBatchRequest(nil, []Op{{Op: "set", X: 1, Y: 1, V: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	resp, err := post(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: status %d, want 400", resp.StatusCode)
	}

	big, err := AppendBatchRequest(nil, []Op{
		{Op: "dims"}, {Op: "dims"}, {Op: "dims"}, {Op: "dims"}, {Op: "dims"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = post(big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-MaxBatch frame: status %d, want 400", resp.StatusCode)
	}

	writable.Set(false)
	resp, err = post(frame)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: status %d, want 503", resp.StatusCode)
	}
	// Reads still pass while degraded.
	getFrame, err := AppendBatchRequest(nil, []Op{{Op: "get", X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = post(getFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d, want 200", resp.StatusCode)
	}
}

// TestServerWireBinaryIdempotentReplay posts the same binary frame twice
// under one Idempotency-Key and checks the second answer is the recorded
// binary response, not a re-execution.
func TestServerWireBinaryIdempotentReplay(t *testing.T) {
	jc, table, _ := newTestServer(t, "")
	frame, err := AppendBatchRequest(nil, []Op{{Op: "set", X: 7, Y: 7, V: "once"}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Response {
		req, _ := http.NewRequest(http.MethodPost, jc.Base+"/v1/batch", bytes.NewReader(frame))
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set(IdempotencyKeyHeader, "wire-idem-1")
		resp, err := jc.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := post()
	b1 := bodyOf(t, r1)
	r2 := post()
	b2 := bodyOf(t, r2)
	if r2.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("second post not served from the idempotency cache")
	}
	if r2.Header.Get("Content-Type") != ContentTypeBinary {
		t.Fatalf("replay content type %q, want %q", r2.Header.Get("Content-Type"), ContentTypeBinary)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("replayed binary body differs from the original")
	}
	if n := table.Len(); n != 1 {
		t.Fatalf("table has %d cells after replayed set, want 1", n)
	}
}

func bodyOf(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerBatchPathAllocFree is the server-side allocation guardrail:
// steady-state binary get batches run the core every arm shares — decode,
// serve (plan by batched PF encode, sharded read), response encode — with
// ZERO allocations, keyed or not. Set batches store values that alias the
// pooled request body, which the SlabStore copies into its arena, so they
// allocate nothing per op, with a WAL as without one: the WAL record is
// encoded into the scratch too, and framed into a buffer the log reuses.
// An unkeyed set batch allocates nothing, with a WAL or without; a keyed
// one allocates exactly its idempotency record, key and reply frame in one
// buffer. Every batch runs under a batch deadline, as a served one does:
// a deadline that is never reached costs nothing.
func TestServerBatchPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race: sync.Pool randomly drops puts")
	}
	const n = 128
	getOps := make([]Op, n)
	setOps := make([]Op, n)
	for i := range getOps {
		getOps[i] = Op{Op: "get", X: int64(i%13 + 1), Y: int64(i%17 + 1)}
		setOps[i] = Op{Op: "set", X: int64(i%13 + 1), Y: int64(i%17 + 1), V: "steady-state-value"}
	}
	getFrame, err := AppendBatchRequest(nil, getOps)
	if err != nil {
		t.Fatal(err)
	}
	setFrame, err := AppendBatchRequest(nil, setOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wal  bool
	}{
		{"no-wal", false},
		{"wal", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 256, 256, nil)
			if err != nil {
				t.Fatal(err)
			}
			var opt ServerOptions
			if tc.wal {
				opt.WAL = openTestWAL(t, nil)
			}
			srv := newExchangeServer(table, opt)
			scr := new(wireScratch)
			ctx := context.Background()
			deadline := time.Now().Add(time.Hour)
			// Reads are never recorded, so a keyed get batch skips the cache; a
			// repeated key on a set batch would replay instead of execute.
			getKey, noKey := []byte("get-key"), []byte(nil)
			run := func(frame, key []byte) {
				scr.body = append(scr.body[:0], frame...)
				out, _, status, msg := srv.answer(ctx, deadline, key, 0, scr)
				if status != http.StatusOK {
					t.Fatalf("answer: %d %s", status, msg)
				}
				if len(out) == 0 {
					t.Fatal("empty response frame")
				}
			}
			setKey, keyed := append(make([]byte, 0, 32), "set-key-"...), 0
			runKeyed := func() {
				keyed++
				run(setFrame, strconv.AppendInt(setKey[:len("set-key-")], int64(keyed), 10))
			}
			run(getFrame, getKey) // warm the scratch and the plan pool
			run(setFrame, noKey)
			runKeyed()

			if a := testing.AllocsPerRun(200, func() { run(getFrame, getKey) }); a != 0 {
				t.Errorf("binary get batch: %.2f allocs per request, want 0", a)
			}
			if a := testing.AllocsPerRun(200, func() { run(setFrame, noKey) }); a != 0 {
				t.Errorf("binary set batch: %.2f allocs per request, want 0", a)
			}
			if a := testing.AllocsPerRun(200, runKeyed); a != 1 {
				t.Errorf("keyed binary set batch: %.2f allocs per request, want 1 (its idempotency record)", a)
			}
		})
	}
}

// TestServerSetDoesNotRetainBody: a binary set batch's values alias the
// pooled request body. A second request through the same scratch, laid
// out the same, overwrites that body in place; the cell must still read
// the first value.
func TestServerSetDoesNotRetainBody(t *testing.T) {
	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newExchangeServer(table, ServerOptions{})
	scr := &wireScratch{BatchBuf: BatchBuf{body: make([]byte, 0, 1024)}}
	run := func(ops []Op) []OpResult {
		frame, err := AppendBatchRequest(nil, ops)
		if err != nil {
			t.Fatal(err)
		}
		scr.body = append(scr.body[:0], frame...)
		out, _, status, msg := srv.answer(context.Background(), time.Time{}, nil, 0, scr)
		if status != http.StatusOK {
			t.Fatalf("answer: %d %s", status, msg)
		}
		res, err := DecodeBatchResponse(out, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run([]Op{{Op: "set", X: 3, Y: 4, V: "first-value"}})
	run([]Op{{Op: "set", X: 5, Y: 6, V: "XXXXXXXXXXX"}})
	if res := run([]Op{{Op: "get", X: 3, Y: 4}}); !res[0].Found || res[0].V != "first-value" {
		t.Fatalf("cell (3, 4) reads %+v, want %q", res[0], "first-value")
	}
	if v, ok, err := table.Get(3, 4); err != nil || !ok || v != "first-value" {
		t.Fatalf("table cell (3, 4) = %q, %v, %v; want %q", v, ok, err, "first-value")
	}
}

// TestShardedBatchIntoAllocFree pins the backend half on its own: planning
// (batched address encode + counting sort) and the shard loops reuse
// pooled scratch, so GetBatchInto/SetBatchInto allocate nothing — and a
// fault-wrapped table keeps that path, injected fault rolls included.
func TestShardedBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race: sync.Pool randomly drops puts")
	}
	table, err := NewSharded[string](core.Diagonal{}, 8, slabStore, 256, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := ParseFaults("seed=3,errrate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	cells := make([]Cell[string], n)
	keys := make([]Pos, n)
	for i := range cells {
		cells[i] = Cell[string]{X: int64(i%31 + 1), Y: int64(i%29 + 1), V: "v"}
		keys[i] = Pos{X: cells[i].X, Y: cells[i].Y}
	}
	errs := make([]error, n)
	res := make([]GetResult[string], n)
	for _, tc := range []struct {
		name string
		b    Backend[string]
	}{
		{"sharded", table},
		{"faultwrap", NewFaultInjector(fc).WrapBackend(table)},
	} {
		tc.b.SetBatchInto(cells, errs)
		if a := testing.AllocsPerRun(200, func() { tc.b.SetBatchInto(cells, errs) }); a != 0 {
			t.Errorf("%s SetBatchInto: %.2f allocs per batch, want 0", tc.name, a)
		}
		if a := testing.AllocsPerRun(200, func() { tc.b.GetBatchInto(keys, res) }); a != 0 {
			t.Errorf("%s GetBatchInto: %.2f allocs per batch, want 0", tc.name, a)
		}
	}
	table.SetBatchInto(cells, errs)
	table.GetBatchInto(keys, res)
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if !res[i].OK || res[i].V != "v" {
			t.Fatalf("get %d: %+v", i, res[i])
		}
	}
}

// TestClientConnectionReuse is the dial-count regression test for the
// pooled default transport: N workers hammering one server must reuse
// their connections between batches instead of re-dialing. Under
// http.DefaultTransport's 2-idle-conns-per-host default, 8 workers × 40
// rounds dial hundreds of times; the pinned pool stays at ≲ one dial per
// worker.
func TestClientConnectionReuse(t *testing.T) {
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(NewHandler(table, ServerOptions{Ready: obs.NewFlag(true)}))
	var dials atomic.Int64
	// ConnState must be installed before Start: the serve goroutine reads it.
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deliberately NO custom HTTP client: this exercises the shared
			// pooled DefaultTransport, the code path under regression.
			c := &Client{Base: ts.URL, Wire: WireBinary}
			for r := 0; r < rounds; r++ {
				if err := c.Set(context.Background(),
					Cell[string]{X: int64(w + 1), Y: int64(r%32 + 1), V: "reuse"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := dials.Load(); d > 3*workers {
		t.Errorf("%d dials for %d workers × %d batches: connections are churning, want ≤ %d",
			d, workers, rounds, 3*workers)
	}
	DefaultTransport.CloseIdleConnections()
}

// TestKeyedRecordsReplayConcurrently: a keyed write's record holds its key
// and reply frame in one buffer, copied from the request's pooled scratch.
// Concurrent writers, each reusing one key buffer and one scratch, record
// batches and retransmit them; every answer, first or replayed, decodes
// to the batch's own results. The cache is small, so records are evicted
// while others are read.
func TestKeyedRecordsReplayConcurrently(t *testing.T) {
	srv := newExchangeServer(newConnTable(t, nil), ServerOptions{})
	srv.idem = newIdemCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scr := new(wireScratch)
			var key []byte
			for i := 0; i < 100; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				frame, err := AppendBatchRequest(nil, []Op{
					{Op: "set", X: int64(w + 1), Y: int64(i%8 + 1), V: v},
					{Op: "get", X: int64(w + 1), Y: int64(i%8 + 1)},
				})
				if err != nil {
					t.Error(err)
					return
				}
				for try := 0; try < 2; try++ {
					key = fmt.Appendf(key[:0], "key-%d-%d", w, i)
					scr.body = append(scr.body[:0], frame...)
					out, _, status, msg := srv.answer(context.Background(), time.Time{}, key, 0, scr)
					if status != http.StatusOK {
						t.Errorf("writer %d batch %d try %d: %d %s", w, i, try, status, msg)
						return
					}
					res, err := DecodeBatchResponse(out, nil, 0)
					if err != nil || len(res) != 2 || !res[0].OK || !res[1].Found || res[1].V != v {
						t.Errorf("writer %d batch %d try %d: %+v, %v; want the set acknowledged and %q read", w, i, try, res, err, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
