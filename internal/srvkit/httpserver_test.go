package srvkit

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDeriveTimeouts pins the one-place derivation contract: the write
// deadline always comfortably exceeds the request timeout, so the
// handler's own 503 — not the kernel — is what answers a slow request.
func TestDeriveTimeouts(t *testing.T) {
	cases := []struct {
		req         time.Duration
		read, write time.Duration
	}{
		{0, 0, 0},            // unbounded handlers: no conn deadlines
		{-time.Second, 0, 0}, // negative means disabled too
		{10 * time.Second, MinReadTimeout, 30 * time.Second}, // read floored
		{time.Minute, 80 * time.Second, 80 * time.Second},
		// The regression case: the old tabledserver hardcoded
		// WriteTimeout at 2m, so a request timeout of 150s ended in a
		// dropped connection. Derived, the write deadline tracks the
		// request timeout past any hardcode.
		{150 * time.Second, 170 * time.Second, 170 * time.Second},
		{10 * time.Minute, 10*time.Minute + WriteSlack, 10*time.Minute + WriteSlack},
	}
	for _, c := range cases {
		got := DeriveTimeouts(c.req)
		if got.ReadHeader != DefaultReadHeaderTimeout {
			t.Errorf("DeriveTimeouts(%v).ReadHeader = %v", c.req, got.ReadHeader)
		}
		if got.Read != c.read || got.Write != c.write {
			t.Errorf("DeriveTimeouts(%v) = read %v write %v, want read %v write %v",
				c.req, got.Read, got.Write, c.read, c.write)
		}
		if c.req > 0 && got.Write <= c.req {
			t.Errorf("DeriveTimeouts(%v): write %v does not exceed the request timeout", c.req, got.Write)
		}
	}
}

// serveOnce starts srv on a fresh loopback listener and returns its base
// URL and a closer.
func serveOnce(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestHandlerDeadlineWinsOverConnDeadline is the scaled regression test
// for the tabledserver bug: with the server built by NewHTTPServer, a
// handler whose step in flight overruns the request timeout answers its
// own 503 at the next stage boundary — never a connection reset —
// because the derived write deadline sits WriteSlack beyond the request
// deadline.
func TestHandlerDeadlineWinsOverConnDeadline(t *testing.T) {
	const reqTimeout = 100 * time.Millisecond
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		deadline := time.Now().Add(reqTimeout)
		time.Sleep(8 * reqTimeout) // a step that cannot be abandoned midway
		if !time.Now().Before(deadline) {
			http.Error(w, "batch timed out", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "too late")
	})
	mux := http.NewServeMux()
	mux.Handle("/api", slow)
	base := serveOnce(t, NewHTTPServer("", mux, reqTimeout))

	resp, err := http.Get(base + "/api")
	if err != nil {
		t.Fatalf("client saw a transport error (dropped connection), want a 503: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "batch timed out") {
		t.Fatalf("slow handler: %d %q, want 503 with the timeout body", resp.StatusCode, body)
	}
}

// TestHardcodedWriteTimeoutDropsConnection demonstrates the bug shape the
// derivation fixes: an http.Server whose WriteTimeout is shorter than the
// handler's runtime (the old tabledserver with -timeout past 2m, scaled
// down) hands the client a reset instead of a status.
func TestHardcodedWriteTimeoutDropsConnection(t *testing.T) {
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			time.Sleep(500 * time.Millisecond) // "request timeout" beyond the hardcode
			io.WriteString(w, "unreachable")
		}),
		WriteTimeout: 50 * time.Millisecond, // the hardcode, scaled
	}
	base := serveOnce(t, srv)
	resp, err := http.Get(base + "/")
	if err == nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("got %d %q, want a dropped connection (this pins the failure mode the srvkit derivation prevents)",
			resp.StatusCode, b)
	}
}
