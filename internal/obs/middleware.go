package obs

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// MiddlewareConfig parameterizes Middleware.
type MiddlewareConfig struct {
	// Registry receives the metrics; nil disables metric recording (the
	// middleware still logs).
	Registry *Registry
	// Logger, when non-nil, receives one structured line per request
	// (method, path, status, bytes, duration): at Info for a request that
	// failed (non-2xx) or was slow, at Debug for the rest.
	Logger *slog.Logger
	// PathLabel maps a request to the value of the path label, bounding
	// label cardinality (raw URL paths from the open internet would mint
	// one time series per scanned path). Nil uses r.URL.Path verbatim —
	// only safe behind a fixed route set.
	PathLabel func(*http.Request) string
}

// Middleware wraps next, recording per-request metrics into cfg.Registry:
//
//	http_requests_total{path,code}           counter (code is the status
//	                                         class: "1xx" … "5xx")
//	http_in_flight_requests                  gauge, +1 for each request
//	                                         being served right now
//	http_request_duration_seconds{path}      histogram of wall time
//	http_response_bytes_total{path}          counter of body bytes written
//
// and, when cfg.Logger is set, logging one line per completed request (see
// Route.Observe for its level).
// The ResponseWriter handed to next unwraps (http.ResponseController), so
// handlers behind the middleware can still hijack, set deadlines, or
// enable full duplex. A hijacked request is recorded when its handler
// returns, with the status it wrote before hijacking (101 for an Upgrade).
func Middleware(cfg MiddlewareConfig, next http.Handler) http.Handler {
	q := NewRequests(cfg.Registry, cfg.Logger)
	pathLabel := cfg.PathLabel
	if pathLabel == nil {
		pathLabel = func(r *http.Request) string { return r.URL.Path }
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q.inFlight.Inc()
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter = w
		next.ServeHTTP(sw, r)
		q.inFlight.Dec()
		q.Route(pathLabel(r)).Observe(r.Context(), r.Method, r.URL.Path, r.RemoteAddr,
			sw.Status(), sw.bytes, time.Since(start))
		*sw = statusWriter{}
		statusWriters.Put(sw)
	})
}

// statusWriters recycles Middleware's per-request writers. A writer goes
// back once next returns, which for a hijacked connection is when the
// connection is done, so no handler still holds it.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// Requests is Middleware's request accounting — the http_* families and
// the per-request log line — for servers that also answer requests
// outside net/http's handler chain, such as the exchanges of an upgraded
// connection. Requests built over one Registry share its series, so such
// requests land in the same counters as the ones Middleware sees.
type Requests struct {
	reg      *Registry
	logger   *slog.Logger
	inFlight *Gauge

	mu     sync.RWMutex
	routes map[string]*Route
}

// NewRequests registers the http_* families on reg (nil records no
// metrics) and logs to logger (nil logs nothing).
func NewRequests(reg *Registry, logger *slog.Logger) *Requests {
	reg.Help("http_requests_total", "HTTP requests served, by path and status class.")
	reg.Help("http_in_flight_requests", "HTTP requests currently being served.")
	reg.Help("http_request_duration_seconds", "HTTP request latency, by path.")
	reg.Help("http_response_bytes_total", "HTTP response body bytes written, by path.")
	return &Requests{reg: reg, logger: logger, inFlight: reg.Gauge("http_in_flight_requests"),
		routes: make(map[string]*Route)}
}

// Route returns the series of one path label, resolved on the label's
// first request and kept: recording a request then needs no registry
// lookup, and allocates nothing once every status class it sees has been
// resolved. Labels are bounded (MiddlewareConfig.PathLabel), so is the map.
func (q *Requests) Route(label string) *Route {
	q.mu.RLock()
	rt := q.routes[label]
	q.mu.RUnlock()
	if rt != nil {
		return rt
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if rt = q.routes[label]; rt == nil {
		rt = &Route{
			q:     q,
			label: label,
			bytes: q.reg.Counter("http_response_bytes_total", L("path", label)),
			dur:   q.reg.Histogram("http_request_duration_seconds", DefDurationBuckets, L("path", label)),
		}
		q.routes[label] = rt
	}
	return rt
}

// A Route records the requests of one path label.
type Route struct {
	q     *Requests
	label string
	bytes *Counter
	dur   *Histogram
	codes [len(statusClasses)]atomic.Pointer[Counter] // resolved on first use
}

// slowRequest is the wall time past which a successful request is logged
// at Info. It sits above the replication long-poll's default window
// (2 s), so a follower's empty pulls are not reported as slow.
const slowRequest = 5 * time.Second

// Observe records one completed request: its status class, body bytes
// and wall time, plus a log line when the Requests has a logger. The line
// is at Info for a request that failed (non-2xx) or took slowRequest or
// longer, and at Debug otherwise: the metrics count every request, so
// the log keeps the ones an operator looks for, and a logger filtering
// Debug (the daemons' default) costs a successful request one Enabled
// call, not a formatted line and a write.
func (rt *Route) Observe(ctx context.Context, method, path, remote string, status int, bytes int64, elapsed time.Duration) {
	if rt.q.reg != nil {
		rt.code(status).Inc()
		rt.bytes.Add(bytes)
		rt.dur.Observe(elapsed.Seconds())
	}
	level := slog.LevelDebug
	if status < 200 || status >= 300 || elapsed >= slowRequest {
		level = slog.LevelInfo
	}
	if rt.q.logger != nil && rt.q.logger.Enabled(ctx, level) {
		rt.q.logger.LogAttrs(ctx, level, "request",
			slog.String("method", method),
			slog.String("path", path),
			slog.Int("status", status),
			slog.Int64("bytes", bytes),
			slog.Duration("duration", elapsed),
			slog.String("remote", remote),
		)
	}
}

func (rt *Route) code(status int) *Counter {
	i := classIndex(status)
	if c := rt.codes[i].Load(); c != nil {
		return c
	}
	c := rt.q.reg.Counter("http_requests_total", L("path", rt.label), L("code", statusClasses[i]))
	rt.codes[i].Store(c)
	return c
}

// statusClasses are the Prometheus-conventional status class labels.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// classIndex maps an HTTP status to its index in statusClasses.
func classIndex(status int) int {
	switch {
	case status >= 100 && status < 200:
		return 0
	case status < 300:
		return 1
	case status < 400:
		return 2
	case status < 500:
		return 3
	default:
		return 4
	}
}

// statusWriter records the status code and body size of a response. It
// forwards Flush so streaming handlers keep working behind the middleware,
// and unwraps so http.ResponseController reaches the underlying writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// Status returns the written status, defaulting to 200 when the handler
// never called WriteHeader (net/http's implicit behaviour).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap returns the wrapped writer, for http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
