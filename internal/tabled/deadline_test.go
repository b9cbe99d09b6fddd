package tabled

import (
	"bytes"
	"context"
	"io"
	"log/slog"
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
)

// The batch deadline is enforced by serve, not by a wrapper around the
// handler: a batch parked in a wait past its timeout must still come back
// as a 503 "batch timed out" soon after the timeout, on /v1/batch and on
// an exchange alike.

const (
	testBatchTimeout = 200 * time.Millisecond
	// deadlineSlack is how far past its timeout a parked batch may be
	// answered: scheduling on a loaded host, not a second wait.
	deadlineSlack = time.Second
	// stallFor bounds a test's stall: a batch that waits it out ignored
	// its deadline.
	stallFor = 5 * time.Second
)

// batchVia returns a function sending a batch to ts by transport: "http"
// posts it to /v1/batch, "exchange" runs it on an upgraded connection
// (docs/WIRE.md §7). Neither retries, and each gives up after stallFor.
func batchVia(t *testing.T, transport string, ts *httptest.Server) func(ops []Op) error {
	t.Helper()
	if transport == "http" {
		c := &Client{Base: ts.URL, HTTP: ts.Client(), Wire: WireBinary}
		return func(ops []Op) error {
			ctx, cancel := context.WithTimeout(context.Background(), stallFor)
			defer cancel()
			_, err := c.Batch(ctx, ops)
			return err
		}
	}
	p, err := NewConnPool(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return func(ops []Op) error {
		ctx, cancel := context.WithTimeout(context.Background(), stallFor)
		defer cancel()
		_, err := p.BatchWithKey(ctx, ops, "")
		return err
	}
}

// expectTimedOut fails unless err is a 503 "batch timed out" (want names
// the wait, if any) that took no longer than the batch timeout plus the
// slack.
func expectTimedOut(t *testing.T, err error, want string, took time.Duration) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "batch timed out"+want) {
		t.Fatalf("parked batch: %v, want a 503 %q", err, "batch timed out"+want)
	}
	if took > testBatchTimeout+deadlineSlack {
		t.Fatalf("parked batch answered after %v, want within %v of its %v timeout", took, deadlineSlack, testBatchTimeout)
	}
}

var transports = []string{"http", "exchange"}

// stallSync is a WAL file whose Sync, once armed, announces itself on
// entered and stalls until release is closed.
type stallSync struct {
	WALFile
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *stallSync) Sync() error {
	if f.armed.Load() {
		f.entered <- struct{}{}
		<-f.release
	}
	return f.WALFile.Sync()
}

// TestWALWaitDeadline: a write parked behind another write's stalled WAL
// sync is refused at its deadline, while the sync is still in flight. The
// leader, whose own fsync cannot be abandoned, is refused once the disk
// returns, by the check after execution.
func TestWALWaitDeadline(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			ss := &stallSync{entered: make(chan struct{}, 1), release: make(chan struct{})}
			wal, _, err := OpenWAL(filepath.Join(t.TempDir(), "table.wal"), newWALBackend(t, 8, 8),
				WALOptions{WrapFile: func(f WALFile) WALFile { ss.WALFile = f; return ss }})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { wal.Close() })
			ts := httptest.NewServer(NewHandler(newConnTable(t, nil), ServerOptions{
				WAL: wal, BatchTimeout: testBatchTimeout,
			}))
			t.Cleanup(ts.Close)
			var once sync.Once
			unstall := func() { once.Do(func() { ss.armed.Store(false); close(ss.release) }) }
			t.Cleanup(unstall)
			batch := batchVia(t, tr, ts)

			ss.armed.Store(true)
			lead := make(chan error, 1)
			go func() { lead <- batch([]Op{{Op: "set", X: 1, Y: 1, V: "a"}}) }()
			select {
			case <-ss.entered:
			case <-time.After(stallFor):
				t.Fatal("the first write never reached its WAL sync")
			}
			start := time.Now()
			err = batch([]Op{{Op: "set", X: 2, Y: 2, V: "b"}})
			expectTimedOut(t, err, " awaiting the WAL sync", time.Since(start))
			unstall()
			if err := <-lead; err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "batch timed out") {
				t.Fatalf("leading write, answered after its deadline: %v, want a 503 batch timed out", err)
			}
			// Neither refusal degraded the node: writes go on.
			if err := batch([]Op{{Op: "set", X: 3, Y: 3, V: "c"}}); err != nil {
				t.Fatalf("write after the stall: %v", err)
			}
		})
	}
}

// TestReplAckDeadline: a write parked in the replication ack wait, with
// no follower and a gate timeout far off, is refused at its batch
// deadline.
func TestReplAckDeadline(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			primary := startReplNode(t, t.TempDir()+"/primary.wal", func(n *replNode) ServerOptions {
				n.repl = &Repl{WAL: n.wal, Gate: &ReplGate{Timeout: time.Minute}}
				return ServerOptions{WAL: n.wal, Repl: n.repl, BatchTimeout: testBatchTimeout}
			})
			batch := batchVia(t, tr, primary.srv)
			start := time.Now()
			err := batch([]Op{{Op: "set", X: 1, Y: 1, V: "a"}})
			expectTimedOut(t, err, " awaiting the replication ack", time.Since(start))
		})
	}
}

// TestStageDeadline: a batch whose backend call overruns the timeout is
// refused by the check after execution, on both transports; a read that
// does not park carries no wait to end.
func TestStageDeadline(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			slow := NewFaultInjector(&Faults{Seed: 1, Latency: 2 * testBatchTimeout}).WrapBackend(newConnTable(t, nil))
			ts := httptest.NewServer(NewHandler(slow, ServerOptions{BatchTimeout: testBatchTimeout}))
			t.Cleanup(ts.Close)
			err := batchVia(t, tr, ts)([]Op{{Op: "get", X: 1, Y: 1}})
			if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "batch timed out") {
				t.Fatalf("slow read: %v, want a 503 batch timed out", err)
			}
		})
	}
}

// discardWriter is a reusable ResponseWriter: it keeps the status and
// drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// frameBody is a request body that rereads one frame per request.
type frameBody struct{ bytes.Reader }

func (*frameBody) Close() error { return nil }

// handlerBatch is one binary /v1/batch request, served in process by the
// full NewHandler stack: request middleware (metrics and a logger at the
// daemons' default level), mux and batch handler.
type handlerBatch struct {
	h     http.Handler
	req   *http.Request
	body  *frameBody
	frame []byte
	w     discardWriter
}

func newHandlerBatch(t testing.TB, opt ServerOptions, ops []Op) *handlerBatch {
	t.Helper()
	frame, err := AppendBatchRequest(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewSharded[string](core.SquareShell{}, 8, slabStore, 64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Registry = obs.NewRegistry()
	opt.Metrics = NewMetrics(opt.Registry, 8)
	opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	hb := &handlerBatch{h: NewHandler(table, opt), body: new(frameBody), frame: frame,
		w: discardWriter{h: make(http.Header)}}
	hb.req = httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	hb.req.Body = hb.body
	hb.req.Header.Set("Content-Type", ContentTypeBinary)
	return hb
}

// run serves the batch once and fails unless it is answered 200.
func (hb *handlerBatch) run(t testing.TB) {
	hb.body.Reset(hb.frame)
	hb.w.status = 0
	hb.h.ServeHTTP(&hb.w, hb.req)
	if hb.w.status != http.StatusOK {
		t.Fatalf("batch answered %d", hb.w.status)
	}
}

func handlerOps(kind string, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Op: kind, X: int64(i%13 + 1), Y: int64(i%17 + 1)}
		if kind == "set" {
			ops[i].V = "steady-state-value"
		}
	}
	return ops
}

// TestHandlerBatchAllocs pins the allocations of a steady-state binary
// get batch through the whole NewHandler stack, under the default batch
// timeout, at none: the request middleware's status writer is pooled,
// ReadBatch counts the body against its cap into the pooled buffer, and
// the timeout allocates nothing on a batch that never parks.
func TestHandlerBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race: sync.Pool randomly drops puts")
	}
	hb := newHandlerBatch(t, ServerOptions{}, handlerOps("get", 128))
	hb.run(t)
	if a := testing.AllocsPerRun(200, func() { hb.run(t) }); a != handlerGetAllocs {
		t.Errorf("binary get batch through NewHandler: %.0f allocs per request, want %d", a, handlerGetAllocs)
	}
}

// handlerGetAllocs is TestHandlerBatchAllocs' pinned count.
const handlerGetAllocs = 0

// BenchmarkHandlerBatch times 128-op binary get and set batches through
// the whole NewHandler stack in process (no network), a WAL-less node
// under the default batch timeout.
func BenchmarkHandlerBatch(b *testing.B) {
	for _, kind := range []string{"get", "set"} {
		b.Run(kind, func(b *testing.B) {
			hb := newHandlerBatch(b, ServerOptions{}, handlerOps(kind, 128))
			hb.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hb.run(b)
			}
		})
	}
}
