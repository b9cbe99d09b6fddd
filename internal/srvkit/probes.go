package srvkit

import (
	"io"
	"net/http"
	"net/http/pprof"

	"pairfn/internal/obs"
)

// Probes are the liveness/readiness endpoints every pairfn server
// exposes. They are mounted on the mux beside the API routes and share
// none of their deadlines or body caps, so a stalled API handler never
// starves an operator or a load balancer:
//
//	GET /healthz   200 "ok" while the process serves at all
//	GET /readyz    200 "ready" | 503 "draining" | 503 "degraded: <detail>"
//
// The readyz ready body can carry a warning detail, e.g.
// "ready (snapshot failing: 3 consecutive failures)", so monitoring that
// only watches the probe still sees a persist loop going bad.
type Probes struct {
	// Ready gates /readyz; nil reads as always ready. Lifecycle.Run
	// flips it false before draining.
	Ready *obs.Flag
	// Degraded, when non-nil, reports the sticky read-only state and its
	// detail text (see Degraded.Probe). Draining takes precedence.
	Degraded func() (degraded bool, detail string)
	// Detail, when non-nil and returning non-empty, is appended to the
	// ready body as "ready (<detail>)".
	Detail func() string
}

// Healthz is the liveness handler: 200 while the process can serve.
func (p Probes) Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
}

// Readyz is the readiness handler.
func (p Probes) Readyz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !p.Ready.Get() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		if p.Degraded != nil {
			if bad, detail := p.Degraded(); bad {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, "degraded: "+detail+"\n")
				return
			}
		}
		if p.Detail != nil {
			if d := p.Detail(); d != "" {
				io.WriteString(w, "ready ("+d+")\n")
				return
			}
		}
		io.WriteString(w, "ready\n")
	})
}

// Register mounts both probes on mux.
func (p Probes) Register(mux *http.ServeMux) {
	mux.Handle("GET /healthz", p.Healthz())
	mux.Handle("GET /readyz", p.Readyz())
}

// MountPprof mounts the net/http/pprof handlers under /debug/pprof/ on
// mux. Mounted explicitly: importing net/http/pprof only registers on
// http.DefaultServeMux, which pairfn servers do not use. Like the
// probes, pprof sits beside the API routes — profiling a server whose API
// is stalled is exactly when pprof matters.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
