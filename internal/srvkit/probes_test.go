package srvkit

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"pairfn/internal/obs"
)

// TestProbeBodies pins the probe protocol: draining beats degraded,
// degraded carries its detail, and the ready detail text surfaces
// warnings without flipping the status code.
func TestProbeBodies(t *testing.T) {
	ready := obs.NewFlag(true)
	deg := NewDegraded(DegradedConfig{Detail: "read-only (WAL volume failed)"})
	detail := ""
	p := Probes{Ready: ready, Degraded: deg.Probe, Detail: func() string { return detail }}

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		p.Readyz().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get(); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("healthy: %d %q", code, body)
	}
	detail = "snapshot failing: 3 consecutive failures"
	if code, body := get(); code != http.StatusOK || body != "ready (snapshot failing: 3 consecutive failures)\n" {
		t.Fatalf("warning detail: %d %q", code, body)
	}
	detail = ""
	deg.Degrade(errors.New("disk gone"))
	if code, body := get(); code != http.StatusServiceUnavailable || body != "degraded: read-only (WAL volume failed)\n" {
		t.Fatalf("degraded: %d %q", code, body)
	}
	ready.Set(false)
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("draining takes precedence: %d %q", code, body)
	}

	rec := httptest.NewRecorder()
	p.Healthz().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}
