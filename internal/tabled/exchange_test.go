package tabled

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
	"pairfn/internal/srvkit"
)

// startConnServer serves NewHandler(table, opt) on a tracked httptest
// server and returns it with a pool dialing it.
func startConnServer(t *testing.T, table Backend[string], opt ServerOptions) (*httptest.Server, *srvkit.Upgrades, *ConnPool) {
	t.Helper()
	ts := httptest.NewUnstartedServer(NewHandler(table, opt))
	ups := srvkit.TrackUpgrades(ts.Config)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ups.Close(context.Background())
	})
	p, err := NewConnPool(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return ts, ups, p
}

func newConnTable(t *testing.T, m *Metrics) *Sharded[string] {
	t.Helper()
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 64, 64, m)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func (p *ConnPool) idleConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// TestConnPoolRoundTrip: a mixed batch over the upgraded wire answers
// exactly what the same batch answers over binary POST /v1/batch, and
// every exchange is counted and recorded as a /v1/batch request.
func TestConnPoolRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	_, _, p := startConnServer(t, newConnTable(t, m), ServerOptions{Registry: reg, Metrics: m})
	ts, _, _ := startConnServer(t, newConnTable(t, nil), ServerOptions{})
	hc := &Client{Base: ts.URL, HTTP: ts.Client(), Wire: WireBinary}
	ctx := context.Background()
	ops := []Op{
		{Op: "set", X: 1, Y: 2, V: "alpha"}, {Op: "get", X: 1, Y: 2}, {Op: "get", X: 9, Y: 9},
		{Op: "resize", Rows: 80, Cols: 80}, {Op: "dims"}, {Op: "stats"}, {Op: "set", X: 0, Y: 1, V: "bad"},
	}
	got, err := p.BatchWithKey(ctx, ops, "k1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hc.BatchWithKey(ctx, ops, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", deref(got)) != fmt.Sprintf("%+v", deref(want)) {
		t.Fatalf("upgraded wire:\n %+v\nHTTP:\n %+v", deref(got), deref(want))
	}
	for i := 0; i < 3; i++ {
		if _, err := p.BatchWithKey(ctx, []Op{{Op: "get", X: 1, Y: 2}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.idleConns(); n != 1 {
		t.Fatalf("sequential batches left %d pooled connections, want 1", n)
	}
	if n := reg.Counter("tabled_conn_exchanges_total").Value(); n != 4 {
		t.Fatalf("tabled_conn_exchanges_total = %d, want 4", n)
	}
	if n := reg.Counter("http_requests_total", obs.L("path", "/v1/batch"), obs.L("code", "2xx")).Value(); n != 4 {
		t.Fatalf("http_requests_total{/v1/batch,2xx} = %d, want 4", n)
	}
	if n := reg.Counter("http_requests_total", obs.L("path", ConnPath), obs.L("code", "1xx")).Value(); n != 0 {
		t.Fatalf("upgrade recorded before its connection closed: %d", n)
	}
}

// deref flattens Stats pointers so results compare by value in a %+v.
func deref(rs []OpResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		st := r.Stats
		r.Stats = nil
		out[i] = fmt.Sprintf("%+v", r)
		if st != nil {
			out[i] += fmt.Sprintf(" stats=%+v", *st)
		}
	}
	return out
}

// TestConnPoolRefusalsMatchHTTP: every non-200 the binary HTTP path
// returns reaches a pool caller as the same error, in the same retry
// class — and a 413, which the member answers without reading the request
// to its end, closes the connection. A JSON client gets the same status
// and retry class (the JSON decoder words some refusals differently).
func TestConnPoolRefusalsMatchHTTP(t *testing.T) {
	set := []Op{{Op: "set", X: 1, Y: 1, V: "v"}}
	cases := []struct {
		name   string
		opt    func(t *testing.T, o *ServerOptions)
		warmup bool // one failing write first (it trips degraded mode)
		ops    []Op
		status string
		closes bool
	}{
		{name: "over-maxbatch", opt: func(_ *testing.T, o *ServerOptions) { o.MaxBatch = 4 },
			ops: []Op{{Op: "dims"}, {Op: "dims"}, {Op: "dims"}, {Op: "dims"}, {Op: "dims"}}, status: "400"},
		// The pooled connection sends only the envelope's head: the member
		// refuses on the declared frame size, before the rest would arrive.
		{name: "oversized-frame", opt: func(*testing.T, *ServerOptions) {},
			ops: []Op{{Op: "set", X: 1, Y: 1, V: strings.Repeat("x", DefaultMaxBodyBytes)}}, status: "413", closes: true},
		{name: "read-only", opt: func(_ *testing.T, o *ServerOptions) { o.Writable = obs.NewFlag(false) },
			ops: set, status: "503"},
		{name: "degraded", opt: func(t *testing.T, o *ServerOptions) {
			o.WAL = openTestWAL(t, NewFaultInjector(&Faults{Seed: 1, SyncErrRate: 1}))
		}, warmup: true, ops: set, status: "503"},
		{name: "replication-unconfirmed", opt: func(t *testing.T, o *ServerOptions) {
			o.WAL = openTestWAL(t, nil)
			o.Repl = &Repl{WAL: o.WAL, Gate: &ReplGate{Timeout: 10 * time.Millisecond}}
		}, ops: set, status: "503"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One member per wire, so stateful refusals (degraded mode,
			// replication sequence numbers) read the same on both.
			serve := func() (*httptest.Server, *ConnPool) {
				o := ServerOptions{}
				tc.opt(t, &o)
				ts, _, p := startConnServer(t, newConnTable(t, nil), o)
				return ts, p
			}
			ctx := context.Background()
			ts, _ := serve()
			hc := &Client{Base: ts.URL, HTTP: ts.Client(), Wire: WireBinary}
			js, _ := serve()
			jc := &Client{Base: js.URL, HTTP: js.Client()}
			_, p := serve()
			if tc.closes {
				if _, err := p.BatchWithKey(ctx, []Op{{Op: "dims"}}, ""); err != nil {
					t.Fatal(err)
				}
				pc := p.idle[0]
				pc.c = &headOnlyConn{Conn: pc.c}
			}
			if tc.warmup {
				hc.Batch(ctx, set)
				jc.Batch(ctx, set)
				p.BatchWithKey(ctx, set, "")
			}
			_, herr := hc.Batch(ctx, tc.ops)
			_, jerr := jc.Batch(ctx, tc.ops)
			_, perr := p.BatchWithKey(ctx, tc.ops, "key")
			if herr == nil || jerr == nil || perr == nil {
				t.Fatalf("refusal not surfaced: HTTP %v, JSON %v, upgraded %v", herr, jerr, perr)
			}
			if !errors.Is(jerr, ErrRemote) || !strings.Contains(jerr.Error(), ": "+tc.status+" ") {
				t.Fatalf("JSON error %v, want ErrRemote with status %s", jerr, tc.status)
			}
			if retry.IsPermanent(jerr) != retry.IsPermanent(perr) {
				t.Fatalf("retry class differs: JSON permanent=%v, upgraded permanent=%v",
					retry.IsPermanent(jerr), retry.IsPermanent(perr))
			}
			if herr.Error() != perr.Error() {
				t.Fatalf("errors differ:\n HTTP:     %v\n upgraded: %v", herr, perr)
			}
			if !errors.Is(perr, ErrRemote) || !strings.Contains(perr.Error(), ": "+tc.status+" ") {
				t.Fatalf("upgraded error %v, want ErrRemote with status %s", perr, tc.status)
			}
			if retry.IsPermanent(herr) != retry.IsPermanent(perr) {
				t.Fatalf("retry class differs: HTTP permanent=%v, upgraded permanent=%v",
					retry.IsPermanent(herr), retry.IsPermanent(perr))
			}
			want := 1
			if tc.closes {
				want = 0
			}
			if n := p.idleConns(); n != want {
				t.Fatalf("%d pooled connections after a %s, want %d", n, tc.status, want)
			}
		})
	}
}

func openTestWAL(t *testing.T, fi *FaultInjector) *WAL {
	t.Helper()
	wal, _, err := OpenWAL(filepath.Join(t.TempDir(), "table.wal"),
		newWALBackend(t, 8, 8), WALOptions{WrapFile: fi.WrapWALFile})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	return wal
}

// TestConnIdempotentReplay: a retransmitted write exchange is answered
// from the idempotency cache, not executed again.
func TestConnIdempotentReplay(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table := newConnTable(t, m)
	_, _, p := startConnServer(t, table, ServerOptions{Registry: reg, Metrics: m})
	ctx := context.Background()
	once := []Op{{Op: "set", X: 7, Y: 7, V: "once"}}
	if _, err := p.BatchWithKey(ctx, once, "idem-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BatchWithKey(ctx, []Op{{Op: "set", X: 7, Y: 7, V: "later"}}, "idem-2"); err != nil {
		t.Fatal(err)
	}
	res, err := p.BatchWithKey(ctx, once, "idem-1")
	if err != nil || !res[0].OK {
		t.Fatalf("replay = %+v, %v", res, err)
	}
	if n := reg.Counter("tabled_idempotent_replays_total").Value(); n != 1 {
		t.Fatalf("tabled_idempotent_replays_total = %d, want 1", n)
	}
	if v, _, _ := table.Get(7, 7); v != "later" {
		t.Fatalf("replayed set executed again: cell = %q", v)
	}
}

// TestConnPoolConcurrent: one pool shared by many goroutines answers
// every batch correctly and keeps no more connections than were ever
// in use at once.
func TestConnPoolConcurrent(t *testing.T) {
	_, _, p := startConnServer(t, newConnTable(t, nil), ServerOptions{})
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				x, y := int64(w+1), int64(r%32+1)
				v := fmt.Sprintf("w%d-r%d", w, r)
				res, err := p.BatchWithKey(context.Background(),
					[]Op{{Op: "set", X: x, Y: y, V: v}, {Op: "get", X: x, Y: y}}, "")
				if err != nil || res[1].V != v {
					t.Errorf("worker %d round %d: %+v, %v", w, r, res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := p.idleConns(); n < 1 || n > workers {
		t.Fatalf("%d pooled connections after %d concurrent workers", n, workers)
	}
}

// fakeMember accepts upgraded connections and hands each one, after the
// handshake, to serve along with its index in accept order.
func fakeMember(t *testing.T, serve func(i int, c net.Conn, br *bufio.Reader)) (base string, accepted *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted = new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			i := int(accepted.Add(1)) - 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+ConnProtocol+"\r\n\r\n")
				serve(i, c, br)
			}()
		}
	}()
	return "http://" + l.Addr().String(), accepted
}

// headOnlyConn is a client connection that sends at most the first
// headOnlyBytes of each write and reports the whole write sent: a peer
// sees an envelope that declares its frame's size without the frame.
type headOnlyConn struct{ net.Conn }

const headOnlyBytes = 64

func (c *headOnlyConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(p[:min(len(p), headOnlyBytes)]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// readRequest reads one request envelope off a fake member's connection.
func readRequest(br *bufio.Reader) ([]Op, error) {
	s := &server{}
	scr := new(wireScratch)
	if _, _, _, _, err := s.readExchange(br, scr); err != nil {
		return nil, err
	}
	return DecodeBatchRequest(scr.body, nil, 0)
}

// answerOK writes a 200 reply with an OK result per op.
func answerOK(c net.Conn, ops []Op) {
	frame, _ := AppendBatchResponse(nil, make([]OpResult, len(ops)))
	reply := binary.AppendUvarint(nil, http.StatusOK)
	reply = binary.AppendUvarint(reply, 0) // position
	reply = binary.AppendUvarint(reply, uint64(len(frame)))
	c.Write(append(reply, frame...))
}

// TestConnPoolResendsOnlyUnanswered: a pooled connection the member
// closed before answering is absorbed by one redial — no error and no
// retry policy involved — while a connection that delivered even one
// reply byte before dying is never resent.
func TestConnPoolResendsOnlyUnanswered(t *testing.T) {
	var requests atomic.Int64
	base, accepted := fakeMember(t, func(i int, c net.Conn, br *bufio.Reader) {
		for n := 0; ; n++ {
			ops, err := readRequest(br)
			if err != nil {
				return
			}
			requests.Add(1)
			switch {
			case i == 0 && n == 1:
				return // conn 0 dies unanswered on its second request
			case i == 1 && n == 1:
				c.Write([]byte{0xc8}) // conn 1 dies one reply byte in
				return
			}
			answerOK(c, ops)
		}
	})
	p, err := NewConnPool(base, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	get := []Op{{Op: "get", X: 1, Y: 1}}
	// Conn 0 answers; then it dies unanswered and conn 1 answers the resend.
	for round := 0; round < 2; round++ {
		if _, err := p.BatchWithKey(ctx, get, ""); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if a, r := accepted.Load(), requests.Load(); a != 2 || r != 3 {
		t.Fatalf("accepted %d connections and %d requests, want 2 and 3", a, r)
	}
	if _, err := p.BatchWithKey(ctx, get, ""); err == nil {
		t.Fatal("a partly answered exchange reported success")
	}
	if a, r := accepted.Load(), requests.Load(); a != 2 || r != 4 {
		t.Fatalf("accepted %d connections and %d requests after a partly answered exchange, want 2 and 4 (no resend)", a, r)
	}
	if n := p.idleConns(); n != 0 {
		t.Fatalf("broken connection returned to the pool (%d idle)", n)
	}
}

// TestConnPoolTimeoutClosesConn: an attempt cut by its timeout closes its
// connection rather than pooling it (its reply may still arrive), and the
// next batch dials afresh.
func TestConnPoolTimeoutClosesConn(t *testing.T) {
	closed := make(chan struct{})
	base, accepted := fakeMember(t, func(i int, c net.Conn, br *bufio.Reader) {
		if i == 0 {
			readRequest(br) // never answered
			readRequest(br) // returns once the client closes
			close(closed)
			return
		}
		for {
			ops, err := readRequest(br)
			if err != nil {
				return
			}
			answerOK(c, ops)
		}
	})
	p, err := NewConnPool(base, nil, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	get := []Op{{Op: "get", X: 1, Y: 1}}
	_, err = p.BatchWithKey(ctx, get, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled exchange: %v, want a deadline error", err)
	}
	if n := p.idleConns(); n != 0 {
		t.Fatalf("timed-out connection pooled (%d idle)", n)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("timed-out connection was never closed")
	}
	if _, err := p.BatchWithKey(ctx, get, ""); err != nil {
		t.Fatal(err)
	}
	if a := accepted.Load(); a != 2 {
		t.Fatalf("accepted %d connections, want 2", a)
	}
}

// TestClientConnBoundsReplyBody: the client reader both wires share
// refuses a reply whose declared body exceeds its bound — the caller's
// limit on a 200, maxRefusal on a refusal — before reading any of the
// body, and leaves the connection broken; a body exactly at the bound
// is read.
func TestClientConnBoundsReplyBody(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		name   string
		status int
		limit  int
		n      int
		ok     bool
	}{
		{"200 at limit", http.StatusOK, limit, limit, true},
		{"200 over limit", http.StatusOK, limit, limit + 1, false},
		{"refusal at maxRefusal", http.StatusServiceUnavailable, 1 << 30, maxRefusal, true},
		{"refusal over maxRefusal", http.StatusServiceUnavailable, 1 << 30, maxRefusal + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer srv.Close()
			cc := &clientConn{c: cli, br: bufio.NewReader(cli), poison: func() {}}
			bodyErr := make(chan error, 1)
			go func() {
				var req [1]byte
				if _, err := io.ReadFull(srv, req[:]); err != nil {
					bodyErr <- err
					return
				}
				head := binary.AppendUvarint(nil, uint64(tc.status))
				head = binary.AppendUvarint(head, 7) // position
				head = binary.AppendUvarint(head, uint64(tc.n))
				srv.Write(head)
				// A pipe write completes only once the client reads it.
				_, err := srv.Write(make([]byte, tc.n))
				bodyErr <- err
			}()
			var pos [1]uint64
			status, body, answered, err := cc.roundTrip(context.Background(), []byte{'x'}, pos[:], tc.limit, nil)
			if tc.ok {
				if err != nil || status != tc.status || len(body) != tc.n || pos[0] != 7 || cc.broken {
					t.Fatalf("reply %d, %d-byte body, pos %d, broken %v, %v; want %d, %d bytes, pos 7, healthy",
						status, len(body), pos[0], cc.broken, err, tc.status, tc.n)
				}
				if err := <-bodyErr; err != nil {
					t.Fatalf("body write: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrRemote) || !answered || !cc.broken {
				t.Fatalf("over-bound reply: answered %v, broken %v, err %v; want an answered ErrRemote on a broken connection",
					answered, cc.broken, err)
			}
			if err := <-bodyErr; !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("body write: %v, want io.ErrClosedPipe (the client read none of it)", err)
			}
		})
	}
}

// TestConnPoolMemberRestart: a member restarted on the same address costs
// the pool one redial and no failed batch, even without a retry policy.
func TestConnPoolMemberRestart(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table := newConnTable(t, m)
	h := NewHandler(table, ServerOptions{Registry: reg, Metrics: m})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	start := func(l net.Listener) (stop func()) {
		srv := &http.Server{Handler: h}
		ups := srvkit.TrackUpgrades(srv)
		go srv.Serve(l)
		return func() {
			srv.Close()
			ups.Close(context.Background())
		}
	}
	stop := start(l)
	p, err := NewConnPool("http://"+addr, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.BatchWithKey(ctx, []Op{{Op: "set", X: 1, Y: 1, V: "v"}}, ""); err != nil {
		t.Fatal(err)
	}
	stop() // the process dies: listener and connections
	l, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer start(l)()
	for i := 0; i < 5; i++ {
		res, err := p.BatchWithKey(ctx, []Op{{Op: "get", X: 1, Y: 1}}, "")
		if err != nil || res[0].V != "v" {
			t.Fatalf("batch %d after the restart: %+v, %v", i, res, err)
		}
	}
	if n := reg.Gauge("tabled_conns_open").Value(); n != 1 {
		t.Fatalf("tabled_conns_open = %d after the restart, want 1 (one redial)", n)
	}
}

// TestConnIdleReaped: between exchanges a connection is closed after the
// server's idle timeout — the keep-alive read deadline net/http applies
// to its own connections — and the pool absorbs the reaped connection
// with one redial.
func TestConnIdleReaped(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	ts := httptest.NewUnstartedServer(NewHandler(newConnTable(t, m), ServerOptions{Registry: reg, Metrics: m}))
	ts.Config.IdleTimeout = 50 * time.Millisecond
	ts.Start()
	defer ts.Close()
	p, err := NewConnPool(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	get := []Op{{Op: "get", X: 1, Y: 1}}
	if _, err := p.BatchWithKey(ctx, get, ""); err != nil {
		t.Fatal(err)
	}
	open := reg.Gauge("tabled_conns_open")
	for deadline := time.Now().Add(5 * time.Second); open.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("idle upgraded connection never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := p.BatchWithKey(ctx, get, ""); err != nil {
		t.Fatalf("batch after the reap: %v", err)
	}
	if n := open.Value(); n != 1 {
		t.Fatalf("tabled_conns_open = %d after the redial, want 1", n)
	}
}

// TestConnStopsOnServerClose: once its server is stopped — the listener
// closed and its upgraded connections released — an existing pooled
// connection serves no further exchange.
func TestConnStopsOnServerClose(t *testing.T) {
	ts, ups, p := startConnServer(t, newConnTable(t, nil), ServerOptions{})
	ctx := context.Background()
	get := []Op{{Op: "get", X: 1, Y: 1}}
	if _, err := p.BatchWithKey(ctx, get, ""); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := ups.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BatchWithKey(ctx, get, ""); err == nil {
		t.Fatal("a closed server answered on its upgraded connection")
	}
}

// gatedTable blocks GetBatchInto while gate is set, announcing entry.
type gatedTable struct {
	*Sharded[string]
	entered chan struct{}
	release chan struct{}
}

func (g *gatedTable) GetBatchInto(keys []Pos, out []GetResult[string]) {
	g.entered <- struct{}{}
	<-g.release
	g.Sharded.GetBatchInto(keys, out)
}

// TestConnDrainFinishesInFlight: on shutdown, an upgraded connection with
// an exchange in flight answers it and closes before the final persist
// runs; an idle one closes at once.
func TestConnDrainFinishesInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table := &gatedTable{Sharded: newConnTable(t, m), entered: make(chan struct{}), release: make(chan struct{})}
	h := NewHandler(table, ServerOptions{Registry: reg, Metrics: m})
	exchanges := reg.Counter("tabled_conn_exchanges_total")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var persisted atomic.Bool
	var answeredAtPersist atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	code := make(chan int, 1)
	go func() {
		code <- srvkit.Lifecycle{
			Server:       srvkit.NewHTTPServer("", h, time.Minute),
			Listener:     l,
			DrainTimeout: 10 * time.Second,
			Final: []srvkit.Step{{Name: "persist", Run: func() error {
				answeredAtPersist.Store(exchanges.Value())
				persisted.Store(true)
				return nil
			}}},
		}.Run(ctx)
	}()
	base := "http://" + l.Addr().String()
	busy, err := NewConnPool(base, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := NewConnPool(base, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	bg := context.Background()
	if _, err := idle.BatchWithKey(bg, []Op{{Op: "dims"}}, ""); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		res, err := busy.BatchWithKey(bg, []Op{{Op: "get", X: 1, Y: 1}}, "")
		if err == nil && !res[0].OK {
			err = fmt.Errorf("in-flight get = %+v", res[0])
		}
		done <- err
	}()
	<-table.entered
	cancel() // SIGTERM
	time.Sleep(50 * time.Millisecond)
	if persisted.Load() {
		t.Fatal("final persist ran while an exchange was in flight")
	}
	if _, err := idle.BatchWithKey(bg, []Op{{Op: "dims"}}, ""); err == nil {
		t.Fatal("an idle upgraded connection served an exchange during the drain")
	}
	close(table.release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight exchange: %v", err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("lifecycle exit %d, want 0", c)
	}
	// The idle pool's dims and the in-flight get.
	if n := answeredAtPersist.Load(); n != 2 {
		t.Fatalf("final persist ran after %d answered exchanges, want 2", n)
	}
	if _, err := busy.BatchWithKey(bg, []Op{{Op: "dims"}}, ""); err == nil {
		t.Fatal("the drained connection served another exchange")
	}
}

// newExchangeServer builds the server NewHandler would, minus the HTTP
// routes, so a test can drive exchange directly.
func newExchangeServer(b Backend[string], opt ServerOptions) *server {
	if opt.MaxBatch == 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	return &server{b: b, opt: opt, idem: newIdemCache(DefaultIdempotencyCache),
		batchRoute: obs.NewRequests(opt.Registry, opt.Logger).Route("/v1/batch")}
}

// loopReader replays one byte string forever.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestExchangeGetAllocFree extends the serve guardrail to the whole
// exchange: with no logger, a steady-state keyed get exchange — envelope
// read, decode, serve, reply write, per-exchange metrics — allocates
// nothing. (203 exchanges run, under 256 distinct keys.)
func TestExchangeGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race: sync.Pool randomly drops puts")
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg, 8)
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 256, 256, m)
	if err != nil {
		t.Fatal(err)
	}
	s := newExchangeServer(table, ServerOptions{Registry: reg, Metrics: m})
	ops := make([]Op, 128)
	for i := range ops {
		ops[i] = Op{Op: "get", X: int64(i%13 + 1), Y: int64(i%17 + 1)}
	}
	// A distinct key per exchange, as the router sends: every lookup
	// misses the idempotency cache.
	var stream []byte
	for i := 0; i < 256; i++ {
		if stream, err = appendExchangeRequest(stream, fmt.Sprintf("client-%04d/node-0/128", i), 0, ops); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&loopReader{b: stream})
	bw := bufio.NewWriter(io.Discard)
	scr := new(wireScratch)
	ctx := context.Background()
	run := func() {
		if !s.exchange(ctx, br, bw, scr, s.batchRoute, "test") {
			t.Fatal("exchange failed")
		}
		bw.Flush()
	}
	run()
	run()
	if a := testing.AllocsPerRun(200, run); a != 0 {
		t.Errorf("get exchange: %.2f allocs, want 0", a)
	}
	if n := reg.Counter("http_requests_total", obs.L("path", "/v1/batch"), obs.L("code", "2xx")).Value(); n < 202 {
		t.Errorf("exchanges recorded as /v1/batch requests: %d", n)
	}
	var reply bytes.Buffer
	bw.Reset(&reply)
	run()
	var pos [1]uint64
	status, _, err := readReply(bufio.NewReader(&reply), pos[:], wireHeaderSize+MaxWirePayload, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("reply status %d, %v", status, err)
	}
}

// TestConnPositions pins the exchange's positions (docs/WIRE.md §7): a
// write is answered with a WAL position that covers it, a read with 0;
// an unpromoted follower that has applied fewer records than a request's
// minimum position refuses it with ErrBehind and keeps the connection,
// and answers once it has them or is promoted.
func TestConnPositions(t *testing.T) {
	ctx := context.Background()
	_, _, p := startConnServer(t, newConnTable(t, nil), ServerOptions{WAL: openTestWAL(t, nil)})
	_, pos1, err := p.Exchange(ctx, new(ExchangeBuf), []Op{{Op: "set", X: 1, Y: 1, V: "a"}}, []byte("w1"), 0, time.Time{})
	if err != nil || pos1 != 1 {
		t.Fatalf("first write: pos %d, %v; want 1", pos1, err)
	}
	_, pos2, err := p.Exchange(ctx, new(ExchangeBuf), []Op{{Op: "get", X: 1, Y: 1}, {Op: "set", X: 2, Y: 2, V: "b"}}, []byte("w2"), 0, time.Time{})
	if err != nil || pos2 <= pos1 {
		t.Fatalf("second write: pos %d, %v; want > %d", pos2, err, pos1)
	}
	if _, pos, err := p.Exchange(ctx, new(ExchangeBuf), []Op{{Op: "get", X: 1, Y: 1}}, []byte("r1"), 0, time.Time{}); err != nil || pos != 0 {
		t.Fatalf("read: pos %d, %v; want 0", pos, err)
	}
	if _, pos, err := p.Exchange(ctx, new(ExchangeBuf), []Op{{Op: "set", X: 1, Y: 1, V: "a"}}, []byte("w1"), 0, time.Time{}); err != nil || pos < pos1 {
		t.Fatalf("replayed write: pos %d, %v; want >= %d", pos, err, pos1)
	}

	wal := openTestWAL(t, nil)
	writable := obs.NewFlag(false)
	table := newConnTable(t, nil)
	// Never run: the follower stays at the 3 records it was built with.
	f := NewFollower(table, wal, 3, FollowerOptions{Source: "http://127.0.0.1:1", Writable: writable})
	_, _, rp := startConnServer(t, table, ServerOptions{
		WAL: wal, Writable: writable, Repl: &Repl{WAL: wal, Follower: f},
	})
	get := []Op{{Op: "get", X: 1, Y: 1}}
	if _, _, err := rp.Exchange(ctx, new(ExchangeBuf), get, nil, 4, time.Time{}); !errors.Is(err, ErrBehind) || !retry.IsPermanent(err) {
		t.Fatalf("behind follower: err = %v, want permanent ErrBehind", err)
	}
	if n := rp.idleConns(); n != 1 {
		t.Fatalf("%d pooled connections after a 412, want 1", n)
	}
	for _, minPos := range []uint64{0, 3} {
		if _, _, err := rp.Exchange(ctx, new(ExchangeBuf), get, nil, minPos, time.Time{}); err != nil {
			t.Fatalf("minPos %d: %v", minPos, err)
		}
	}
	f.Promote()
	if _, _, err := rp.Exchange(ctx, new(ExchangeBuf), get, nil, 4, time.Time{}); err != nil {
		t.Fatalf("promoted follower: %v", err)
	}
}
