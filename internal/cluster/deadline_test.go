package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/retry"
	"pairfn/internal/tabled"
)

// TestHandlerMemberExchangeDeadline: a routed batch whose member exchange
// stalls is answered 503 "batch timed out" by the front door soon after
// its batch timeout. The exchange's connection deadline is the earlier of
// the batch deadline and the node timeout, and no retry follows it, so
// neither the node timeout nor the retry policy outlasts the batch.
func TestHandlerMemberExchangeDeadline(t *testing.T) {
	const (
		timeout = 200 * time.Millisecond
		slack   = time.Second
	)
	f, err := core.ByName("diagonal")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tabled.NewSharded[string](f, 4, func() extarray.Store[string] { return extarray.NewSlabStore() }, 40, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := tabled.NewFaultInjector(&tabled.Faults{Seed: 1, Latency: 2500 * time.Millisecond}).WrapBackend(b)
	m := startMember(t, tabled.NewHandler(slow, tabled.ServerOptions{}))
	spec, err := EvenSpec("diagonal", []string{m.URL}, 1<<20, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(spec, Options{
		NodeTimeout: 5 * time.Second,
		Retry:       &retry.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{BatchTimeout: timeout}))
	t.Cleanup(front.Close)

	body, _ := json.Marshal(tabled.BatchRequest{Ops: []tabled.Op{{Op: "get", X: 1, Y: 1}}})
	start := time.Now()
	resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "batch timed out") {
		t.Fatalf("stalled member: %d %q, want 503 batch timed out", resp.StatusCode, msg)
	}
	if took > timeout+slack {
		t.Fatalf("stalled member answered after %v, want within %v of the %v batch timeout", took, slack, timeout)
	}
}
