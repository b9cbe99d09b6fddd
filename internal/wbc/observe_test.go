package wbc

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pairfn/internal/apf"
	"pairfn/internal/obs"
)

// newObservedServer builds a coordinator sharing one registry with its
// observed handler, the production wiring of cmd/wbcserver.
func newObservedServer(t *testing.T, opt ServerOptions) (*httptest.Server, *Coordinator, *obs.Registry) {
	t.Helper()
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		opt.Registry = reg
	}
	c, err := NewCoordinator(Config{
		APF: apf.NewTHash(), Workload: DivisorSum{},
		AuditRate: 1, StrikeLimit: 2, Seed: 7, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewObservedHandler(c, opt))
	t.Cleanup(srv.Close)
	return srv, c, reg
}

func get(t *testing.T, url string, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestMetricsContentNegotiation: Prometheus text by default, legacy JSON
// only on an explicit application/json Accept.
func TestMetricsContentNegotiation(t *testing.T) {
	srv, _, _ := newObservedServer(t, ServerOptions{})
	cl := &Client{BaseURL: srv.URL}
	v, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Next(v); err != nil {
		t.Fatal(err)
	}

	status, ctype, body := get(t, srv.URL+"/metrics", "")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("default /metrics: %d %q", status, ctype)
	}
	for _, want := range []string{
		"# TYPE wbc_coordinator_ops_total counter",
		`wbc_coordinator_ops_total{op="register"} 1`,
		`wbc_coordinator_ops_total{op="next"} 1`,
		`apf_encode_total{apf="T#"}`,
		"# TYPE wbc_coordinator_op_duration_seconds histogram",
		`wbc_coordinator_op_duration_seconds_bucket{op="next",le="+Inf"} 1`,
		"wbc_volunteers_registered 1",
		"wbc_tasks_issued 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus exposition missing %q;\n%s", want, body)
		}
	}
	// The scrape itself is middleware-observed: a second scrape must show
	// the first as a 2xx with a latency observation.
	_, _, body = get(t, srv.URL+"/metrics", "")
	for _, want := range []string{
		`http_requests_total{code="2xx",path="/metrics"}`,
		`http_request_duration_seconds_bucket{path="/metrics",le="+Inf"}`,
		"http_in_flight_requests 1", // the in-progress scrape counts itself
	} {
		if !strings.Contains(body, want) {
			t.Errorf("middleware metrics missing %q;\n%s", want, body)
		}
	}

	status, ctype, body = get(t, srv.URL+"/metrics", "application/json")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("JSON /metrics: %d %q", status, ctype)
	}
	if !strings.Contains(body, `"Registered":1`) {
		t.Errorf("legacy JSON snapshot missing counters: %s", body)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	ready := obs.NewFlag(true)
	srv, _, _ := newObservedServer(t, ServerOptions{Ready: ready})

	if status, _, body := get(t, srv.URL+"/healthz", ""); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", status, body)
	}
	if status, _, body := get(t, srv.URL+"/readyz", ""); status != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz = %d %q", status, body)
	}
	ready.Set(false) // draining: load balancer must back off
	if status, _, body := get(t, srv.URL+"/readyz", ""); status != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("/readyz while draining = %d %q", status, body)
	}
	if status, _, _ := get(t, srv.URL+"/healthz", ""); status != http.StatusOK {
		t.Errorf("/healthz must stay 200 while draining, got %d", status)
	}
	ready.Set(true)
	if status, _, _ := get(t, srv.URL+"/readyz", ""); status != http.StatusOK {
		t.Errorf("/readyz after recovery = %d", status)
	}
}

// TestObservedProtocolMetrics drives the volunteer protocol and checks the
// per-endpoint and coordinator instrumentation adds up, including error
// status classes and unknown-path cardinality bounding.
func TestObservedProtocolMetrics(t *testing.T) {
	srv, c, reg := newObservedServer(t, ServerOptions{})
	cl := &Client{BaseURL: srv.URL}
	v, err := cl.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		k, err := cl.Next(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit(v, k, (DivisorSum{}).Do(k)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Submit(v, 999999, 0)             // not issued → 409 (4xx)
	cl.Next(12345)                      // unknown volunteer → 404 (4xx)
	get(t, srv.URL+"/no/such/page", "") // unknown path → "other"

	if got := reg.Counter("wbc_coordinator_ops_total", obs.L("op", "submit")).Value(); got != n {
		t.Errorf("submit ops = %d, want %d", got, n)
	}
	if got := reg.Counter("wbc_coordinator_ops_total", obs.L("op", "audit")).Value(); got != n {
		t.Errorf("audit ops = %d, want %d (AuditRate 1)", got, n)
	}
	if got := reg.Counter("wbc_coordinator_errors_total").Value(); got != 2 {
		t.Errorf("coordinator errors = %d, want 2", got)
	}
	// APF traffic: n fresh issues each encode once; audits recompute via
	// the workload, not the APF, so decodes come only from attribution.
	if got := reg.Counter("apf_encode_total", obs.L("apf", "T#")).Value(); got < n {
		t.Errorf("apf encodes = %d, want ≥ %d", got, n)
	}
	_, _, body := get(t, srv.URL+"/metrics", "")
	for _, want := range []string{
		`http_requests_total{code="2xx",path="/submit"} 5`,
		`http_requests_total{code="4xx",path="/submit"} 1`,
		`http_requests_total{code="4xx",path="/next"} 1`,
		`http_requests_total{code="4xx",path="other"} 1`,
		"wbc_tasks_completed 5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in exposition;\n%s", want, body)
		}
	}
	if m := c.Metrics(); m.Completed != n {
		t.Errorf("coordinator snapshot: %+v", m)
	}
}

// TestObservedHandlerLogsRequests: a successful request is logged at
// Debug (obs.Route.Observe keeps Info for failed and slow ones), so a
// logger that admits Debug sees its line.
func TestObservedHandlerLogsRequests(t *testing.T) {
	var buf bytes.Buffer
	srv, _, _ := newObservedServer(t, ServerOptions{
		Logger: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Register(1); err != nil {
		t.Fatal(err)
	}
	if line := buf.String(); !strings.Contains(line, "level=DEBUG") ||
		!strings.Contains(line, "path=/register") || !strings.Contains(line, "status=200") {
		t.Errorf("request log missing register line: %q", line)
	}
}

// TestUninstrumentedCoordinatorUnchanged: with Config.Obs nil the
// coordinator must carry no instrumentation (nil handles, raw APF) — the
// zero-cost path used by simulations and benchmarks.
func TestUninstrumentedCoordinatorUnchanged(t *testing.T) {
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: Null{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.ops.enabled() {
		t.Error("coordObs enabled without a registry")
	}
	if _, ok := c.Ledger().APF().(*apf.Instrumented); ok {
		t.Error("APF wrapped despite nil registry")
	}
	v := c.MustRegister(1)
	if _, err := c.NextTask(v); err != nil {
		t.Fatal(err)
	}
}
