package srvkit

import (
	"net/http"
	"time"
)

// DefaultReadHeaderTimeout bounds how long a client may take to send the
// request headers. It is independent of the handler timeout: headers are
// a handful of lines, and slowloris clients must be cut early.
const DefaultReadHeaderTimeout = 5 * time.Second

// WriteSlack is the margin added to the request timeout when deriving the
// connection write deadline. It covers the handler writing its 503 plus
// response flushing to a slow client: the connection deadline must never
// fire before the 503 is written, or the client sees a reset instead of a
// status. A handler that enforces its own deadline answers at its first
// stage boundary past it, so the slack also covers the one step in flight
// then — a backend call, or an fsync the batch leads, which cannot be
// abandoned midway; an http.TimeoutHandler answers at the deadline itself.
const WriteSlack = 20 * time.Second

// MinReadTimeout floors the derived read deadline so short handler
// timeouts do not cut off legitimately slow request-body uploads.
const MinReadTimeout = time.Minute

// Timeouts are derived http.Server connection deadlines.
type Timeouts struct {
	ReadHeader time.Duration
	Read       time.Duration
	Write      time.Duration
}

// DeriveTimeouts computes the http.Server deadlines for a server whose
// slowest intentional request is bounded by requestTimeout (tabled's
// batch timeout, which its handlers enforce themselves, or wbc's
// volunteer-protocol timeout, an http.TimeoutHandler):
//
//	Write = requestTimeout + WriteSlack   (always > requestTimeout)
//	Read  = max(Write, MinReadTimeout)
//
// so a handler that overruns is answered with its 503, never cut by the
// kernel dropping the connection. This derivation
// is the fix for the old tabledserver bug: it hardcoded WriteTimeout at
// 2m, so any request timeout ≥ 2m turned the promised 503 into a reset.
//
// requestTimeout ≤ 0 means the handlers are unbounded; only the header
// deadline is set then, because any connection deadline would
// reintroduce the silent-drop behavior.
func DeriveTimeouts(requestTimeout time.Duration) Timeouts {
	t := Timeouts{ReadHeader: DefaultReadHeaderTimeout}
	if requestTimeout <= 0 {
		return t
	}
	t.Write = requestTimeout + WriteSlack
	t.Read = t.Write
	if t.Read < MinReadTimeout {
		t.Read = MinReadTimeout
	}
	return t
}

// NewHTTPServer builds the production http.Server for handler h with all
// connection deadlines derived from requestTimeout via DeriveTimeouts.
// Servers must be constructed here — not with an http.Server literal —
// so the timeout derivation cannot drift per daemon again
// (scripts/srvkit_guard.sh enforces this for cmd/*server).
func NewHTTPServer(addr string, h http.Handler, requestTimeout time.Duration) *http.Server {
	t := DeriveTimeouts(requestTimeout)
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
	}
}
