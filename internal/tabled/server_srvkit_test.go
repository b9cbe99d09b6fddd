package tabled

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
)

// TestServerLongTimeoutGets503NotReset is the end-to-end regression test
// for the hardcoded-WriteTimeout bug: tabledserver used to pin
// WriteTimeout at 2m, so running it with a batch timeout at or past that
// made every slow batch end in a dropped connection instead of the
// promised 503. The daemon now builds its server with
// srvkit.NewHTTPServer(addr, mux, timeout), whose write deadline is
// derived to always exceed the handler timeout — this test composes the
// same pieces the main does (scaled down) and proves a batch overrunning
// the timeout comes back as a clean 503 "batch timed out" over a real
// connection, with real deadlines armed.
func TestServerLongTimeoutGets503NotReset(t *testing.T) {
	const batchTimeout = 250 * time.Millisecond

	table, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := NewFaultInjector(&Faults{Seed: 1, Latency: 4 * batchTimeout}).WrapBackend(table)
	handler := NewHandler(slow, ServerOptions{
		Ready:        obs.NewFlag(true),
		BatchTimeout: batchTimeout,
	})

	srv := srvkit.NewHTTPServer("", handler, batchTimeout)
	if srv.WriteTimeout <= batchTimeout {
		t.Fatalf("WriteTimeout %v does not exceed the batch timeout %v — the hardcode bug shape",
			srv.WriteTimeout, batchTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c := &Client{Base: "http://" + ln.Addr().String()}
	err = c.Set(context.Background(), Cell[string]{X: 1, Y: 1, V: "v"})
	if err == nil {
		t.Fatal("slow batch succeeded, want a 503 from the timeout handler")
	}
	if !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "batch timed out") {
		t.Fatalf("slow batch failed with %v, want a 503 %q — a transport error here means the connection deadline fired first",
			err, "batch timed out")
	}
}
