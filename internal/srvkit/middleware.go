package srvkit

import (
	"net/http"
	"time"
)

// APIStack is the hardening stack for API routes: body cap and, for
// handlers that cannot enforce a deadline themselves, a handler timeout,
// composed in the one correct order. Wrap is applied per route (or per
// sub-mux), and the probe/metrics endpoints are mounted beside it, so a
// stalled API handler can exhaust its timeout without ever delaying
// /healthz, /readyz, /metrics, or pprof.
//
// RequestTimeout is http.TimeoutHandler, which runs the handler on a
// goroutine of its own under a derived context and buffers its whole
// response: a timer, a goroutine and a response copy per request. A
// handler that checks a deadline itself at its stage boundaries, and
// passes it to the waits that can park, leaves RequestTimeout unset —
// tabled's batch handlers, the node's and the router's, do
// (scripts/srvkit_guard.sh keeps it that way); wbcserver's handlers are
// not deadline-aware and keep it.
type APIStack struct {
	// MaxBodyBytes caps each request body via http.MaxBytesReader;
	// handlers see *http.MaxBytesError past it. ≤ 0 disables the cap.
	MaxBodyBytes int64
	// RequestTimeout bounds the whole request (body read included) via
	// http.TimeoutHandler; overruns answer 503 with TimeoutBody. ≤ 0
	// disables the timeout.
	RequestTimeout time.Duration
	// TimeoutBody is the 503 body written on overrun (plain text or
	// pre-encoded JSON, matching what the route's clients parse).
	TimeoutBody string
}

// Wrap layers the stack around api. Request flow is
//
//	TimeoutHandler → MaxBytesReader → api
//
// so the timeout clock covers reading the (capped) body too — a client
// trickling a large body gets its 503 at the deadline. Without a
// RequestTimeout the connection's read deadline (DeriveTimeouts) bounds
// a trickled body instead.
func (s APIStack) Wrap(api http.Handler) http.Handler {
	h := api
	if s.MaxBodyBytes > 0 {
		inner, limit := h, s.MaxBodyBytes
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
			inner.ServeHTTP(w, r)
		})
	}
	if s.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.RequestTimeout, s.TimeoutBody)
	}
	return h
}
