package obs

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareStatusClasses(t *testing.T) {
	r := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("fine"))
	})
	mux.HandleFunc("/teapot", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "short and stout", http.StatusTeapot)
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(Middleware(MiddlewareConfig{Registry: r}, mux))
	defer srv.Close()

	for path, n := range map[string]int{"/ok": 3, "/teapot": 2, "/boom": 1, "/nope": 1} {
		for i := 0; i < n; i++ {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	checks := map[string]int64{
		`http_requests_total{code="2xx",path="/ok"}`:     3,
		`http_requests_total{code="4xx",path="/teapot"}`: 2,
		`http_requests_total{code="5xx",path="/boom"}`:   1,
		`http_requests_total{code="4xx",path="/nope"}`:   1, // mux 404
	}
	out := expo(t, r)
	for line, want := range checks {
		if !strings.Contains(out, line+" "+strconv.FormatInt(want, 10)) {
			t.Errorf("missing %q = %d in:\n%s", line, want, out)
		}
	}
	if !strings.Contains(out, `http_response_bytes_total{path="/ok"} 12`) { // 3 × "fine"
		t.Errorf("response bytes not recorded:\n%s", out)
	}
}

// TestMiddlewareInFlight: the in-flight gauge must be 1 while a request is
// being served and return to 0 afterwards.
func TestMiddlewareInFlight(t *testing.T) {
	r := NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	h := Middleware(MiddlewareConfig{Registry: r}, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	if got := r.Gauge("http_in_flight_requests").Value(); got != 1 {
		t.Errorf("in-flight during request = %d, want 1", got)
	}
	close(release)
	<-done
	if got := r.Gauge("http_in_flight_requests").Value(); got != 0 {
		t.Errorf("in-flight after request = %d, want 0", got)
	}
}

// TestMiddlewareHistogram: every request lands in exactly one histogram
// bucket and the +Inf bucket equals the request count.
func TestMiddlewareHistogram(t *testing.T) {
	r := NewRegistry()
	h := Middleware(MiddlewareConfig{Registry: r}, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Get(srv.URL + "/fast")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	hist := r.Histogram("http_request_duration_seconds", DefDurationBuckets, L("path", "/fast"))
	if hist.Count() != n {
		t.Fatalf("histogram count = %d, want %d", hist.Count(), n)
	}
	_, counts := hist.Snapshot()
	if got := counts[len(counts)-1]; got != n {
		t.Errorf("+Inf cumulative bucket = %d, want %d", got, n)
	}
	// Cumulative counts must be non-decreasing.
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("cumulative counts decrease: %v", counts)
			break
		}
	}
	if hist.Sum() <= 0 {
		t.Errorf("histogram sum = %v, want > 0", hist.Sum())
	}
}

func TestMiddlewarePathLabelBoundsCardinality(t *testing.T) {
	r := NewRegistry()
	h := Middleware(MiddlewareConfig{
		Registry:  r,
		PathLabel: func(*http.Request) string { return "other" },
	}, http.NotFoundHandler())
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, p := range []string{"/a", "/b", "/c"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	out := expo(t, r)
	if !strings.Contains(out, `http_requests_total{code="4xx",path="other"} 3`) {
		t.Errorf("normalized path label missing:\n%s", out)
	}
	if strings.Contains(out, `path="/a"`) {
		t.Errorf("raw path leaked into labels:\n%s", out)
	}
}

func TestMiddlewareLogsRequests(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(MiddlewareConfig{Logger: logger}, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", nil))
	line := buf.String()
	for _, want := range []string{"msg=request", "method=POST", "path=/submit", "status=403"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %q", want, line)
		}
	}
}

// TestMiddlewareHijack: a handler behind the middleware can take over the
// connection through http.ResponseController (an HTTP/1.1 Upgrade), and
// the middleware records the 101 it wrote before hijacking.
func TestMiddlewareHijack(t *testing.T) {
	r := NewRegistry()
	h := Middleware(MiddlewareConfig{Registry: r}, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", "echo")
		w.WriteHeader(http.StatusSwitchingProtocols)
		c, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Errorf("hijack behind the middleware: %v", err)
			return
		}
		defer c.Close()
		line, _ := brw.ReadString('\n')
		c.Write([]byte("echo: " + line))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	c, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /up HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: echo\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade status = %d, want 101", resp.StatusCode)
	}
	if _, err := io.WriteString(c, "hello\n"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo: hello\n" {
		t.Fatalf("upgraded stream = %q", got)
	}
	waitCount := func() int64 {
		return r.Counter("http_requests_total", L("path", "/up"), L("code", "1xx")).Value()
	}
	for deadline := time.Now().Add(5 * time.Second); waitCount() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("hijacked request not recorded as 1xx:\n%s", expo(t, r))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestsRouteAllocFree pins the middleware's per-request accounting:
// a label's Route is resolved once and kept, so recording a request with
// no logger configured allocates nothing.
func TestRequestsRouteAllocFree(t *testing.T) {
	q := NewRequests(NewRegistry(), nil)
	rt := q.Route("/v1/batch")
	if q.Route("/v1/batch") != rt {
		t.Fatal("Route re-resolved a known label")
	}
	ctx := context.Background()
	record := func() {
		q.Route("/v1/batch").Observe(ctx, "POST", "/v1/batch", "127.0.0.1:1", http.StatusOK, 64, time.Millisecond)
	}
	record() // resolve the 2xx series
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Fatalf("recording a request allocates %.1f times", n)
	}
}
