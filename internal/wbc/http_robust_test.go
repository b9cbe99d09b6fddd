package wbc

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/apf"
	"pairfn/internal/walog"
)

// This file pins the abuse-hardening contract of the WBC website: bounded
// request bodies (413), per-request timeouts (503 without wedging the
// connection), heartbeat plumbing, and the degraded read-only posture when
// the journal fails underneath a live server.

// TestHTTPBodyLimit: a body over DefaultMaxBodyBytes answers 413 with a
// typed error, and the server keeps working for well-behaved clients.
func TestHTTPBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t, 0, 1)
	// Valid JSON the decoder has to read all the way through — it hits the
	// byte cap mid-stream rather than failing fast on a syntax error.
	big := []byte(`{"speed":1,"pad":"` + strings.Repeat("x", DefaultMaxBodyBytes+1) + `"}`)
	resp, err := http.Post(srv.URL+"/register", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("oversized body: status %d (%s), close %v; want 413 closing the connection", resp.StatusCode, body, resp.Close)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Fatalf("413 body %q does not name the limit", body)
	}
	// The same connection pool still serves a normal registration.
	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Register(1); err != nil {
		t.Fatalf("register after oversized request: %v", err)
	}
}

// TestHTTPRequestTimeout: a request whose coordinator call outlives
// RequestTimeout answers 503 at the check before its reply, while
// /healthz, which has no deadline, stays live.
func TestHTTPRequestTimeout(t *testing.T) {
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: slowWorkload{}, AuditRate: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewObservedHandler(c, ServerOptions{RequestTimeout: 50 * time.Millisecond}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	id, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := cl.Next(id)
	if err != nil {
		t.Fatal(err)
	}
	// AuditRate 1 forces a slowWorkload recomputation inside Submit, which
	// outlives the 50ms budget.
	_, err = cl.Submit(id, k, 0)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.Msg != "request timed out" {
		t.Fatalf("slow submit = %v, want StatusError 503 request timed out", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during slow requests: status %d, want 200", resp.StatusCode)
	}
}

// slowWorkload stalls Do long enough to trip a 50ms request timeout.
type slowWorkload struct{}

func (slowWorkload) Name() string { return "slow" }
func (slowWorkload) Do(TaskID) int64 {
	time.Sleep(200 * time.Millisecond)
	return 0
}

// stallSync is a journal file whose armed Sync blocks until released.
type stallSync struct {
	walog.File
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *stallSync) Sync() error {
	if f.armed.Load() {
		f.entered <- struct{}{}
		<-f.release
	}
	return f.File.Sync()
}

// TestHTTPJournalWaitDeadline: a mutation parked behind another
// mutation's stalled journal fsync answers 503 at its deadline, while
// the fsync is still in flight. The leader, whose own fsync cannot be
// abandoned, answers 503 once the disk returns, by the check before its
// reply. Neither refusal degrades the coordinator: /healthz and /readyz
// answer 200 throughout, and mutations go on once the disk does.
func TestHTTPJournalWaitDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: DivisorSum{}})
	if err != nil {
		t.Fatal(err)
	}
	ss := &stallSync{entered: make(chan struct{}, 1), release: make(chan struct{})}
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), c, JournalOptions{
		WrapFile: func(f walog.File) walog.File { ss.File = f; return ss },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := httptest.NewServer(NewObservedHandler(c, ServerOptions{RequestTimeout: timeout}))
	defer srv.Close()
	var once sync.Once
	unstall := func() { once.Do(func() { ss.armed.Store(false); close(ss.release) }) }
	defer unstall()
	// A wait that ignored its deadline fails the test, rather than hanging it.
	cl := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Timeout: 5 * time.Second}}
	id, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(path string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, want 200", path, resp.StatusCode)
		}
	}
	timedOut := func(what string, err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.Msg != "request timed out" {
			t.Fatalf("%s: %v, want StatusError 503 request timed out", what, err)
		}
	}

	ss.armed.Store(true)
	lead := make(chan error, 1)
	go func() { _, err := cl.Next(id); lead <- err }()
	select {
	case <-ss.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first mutation never reached its journal fsync")
	}
	_, err = cl.Register(1)
	timedOut("register parked behind the stalled fsync", err)
	probe("/healthz")
	probe("/readyz")
	if c.Degraded() {
		t.Fatal("a wait ended by its deadline degraded the coordinator")
	}
	unstall()
	timedOut("leading next, answered after its deadline", <-lead)
	if c.Degraded() {
		t.Fatal("the leader's late answer degraded the coordinator")
	}
	if _, err := cl.Register(1); err != nil {
		t.Fatalf("register after the stall: %v", err)
	}
	probe("/readyz")
}

// TestHTTPHeartbeat covers the heartbeat endpoint: 200 for an active
// volunteer, 404 for an unknown one, and the typed client path.
func TestHTTPHeartbeat(t *testing.T) {
	srv, _ := newTestServer(t, 0, 1)
	cl := &Client{BaseURL: srv.URL}
	id, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Heartbeat(id); err != nil {
		t.Fatalf("Heartbeat(%d): %v", id, err)
	}
	err = cl.Heartbeat(id + 99)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("Heartbeat(unknown) = %v, want StatusError 404", err)
	}
}

// TestHTTPDegraded: when the journal fails under a live server, mutations
// answer 503, reads and heartbeats answer 200, /readyz reports degraded,
// and the wbc_degraded gauge flips — the read-only posture, end to end.
func TestHTTPDegraded(t *testing.T) {
	c, err := NewCoordinator(Config{
		APF: apf.NewTHash(), Workload: DivisorSum{}, Seed: 9,
		LeaseTTL: time.Minute, Now: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var ff *flakyLogFile
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), c, JournalOptions{
		WrapFile: func(f walog.File) walog.File { ff = &flakyLogFile{File: f}; return ff },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := httptest.NewServer(NewObservedHandler(c, ServerOptions{}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	id, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := cl.Next(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(id, k, (DivisorSum{}).Do(k)); err != nil {
		t.Fatal(err)
	}

	ff.failSync.Store(true)
	_, err = cl.Register(1)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("register on degraded server = %v, want StatusError 503", err)
	}
	if _, err := cl.Next(id); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("next on degraded server = %v, want 503", err)
	}
	// Reads and lease renewal survive the read-only window.
	if got, err := cl.Attribute(k); err != nil || got != id {
		t.Fatalf("attribute on degraded server = %d, %v; want %d", got, err, id)
	}
	if err := cl.Heartbeat(id); err != nil {
		t.Fatalf("heartbeat on degraded server: %v", err)
	}
	if _, err := cl.Metrics(); err != nil {
		t.Fatalf("metrics on degraded server: %v", err)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("/readyz = %d %q, want 503 mentioning degraded", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz on degraded server = %d, want 200 (alive, just read-only)", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "wbc_degraded 1") {
		t.Fatalf("Prometheus exposition missing wbc_degraded 1:\n%s", prom)
	}
}

// TestHTTPDegradedGaugeZero: a healthy journaled server exports
// wbc_degraded 0 — operators alert on the transition.
func TestHTTPDegradedGaugeZero(t *testing.T) {
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: DivisorSum{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewObservedHandler(c, ServerOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "wbc_degraded 0") {
		t.Fatalf("healthy server exposition missing wbc_degraded 0:\n%s", prom)
	}
}
