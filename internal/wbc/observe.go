package wbc

import (
	"log/slog"
	"net/http"
	"strings"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
)

// This file is the observability face of the WBC website: the
// content-negotiated /metrics endpoint, the /healthz and /readyz probes,
// and the middleware wiring that gives every endpoint request counts,
// status classes, an in-flight gauge and latency histograms. The §4
// accountability scheme is an auditing story; these endpoints are the
// operational half of that audit — who is asking, how fast are we
// answering, is the service draining or degraded.

// ServerOptions configures NewObservedHandler.
type ServerOptions struct {
	// Registry is the metrics registry exposed at /metrics and fed by the
	// HTTP middleware. Pass the registry already given to the coordinator
	// (Config.Obs) so HTTP, coordinator and APF metrics share one scrape.
	// Nil gets a fresh private registry.
	Registry *obs.Registry
	// Logger, when non-nil, emits one structured line per request.
	Logger *slog.Logger
	// Ready gates /readyz: a false flag answers 503, telling load
	// balancers to stop routing while in-flight requests drain. Nil means
	// always ready.
	Ready *obs.Flag
	// RequestTimeout, when positive, bounds each volunteer-protocol
	// request from its arrival: one found past it after decoding or before
	// its reply, or parked past it in a journal wait, answers 503 (see
	// endpoint). Probes, /metrics and /attribute have no deadline — an
	// operator must be able to scrape a struggling server.
	RequestTimeout time.Duration
	// ReadyDetail, when non-nil and returning non-empty, is appended to
	// the /readyz ready body as "ready (<detail>)" — wbcserver wires the
	// checkpoint scheduler's failure text here.
	ReadyDetail func() string
}

// NewObservedHandler returns the WBC website for c wrapped in
// observability and abuse hardening: all NewHTTPHandler endpoints plus
//
//	GET /metrics   Prometheus text exposition (default) or the legacy
//	               JSON Metrics snapshot when the request prefers
//	               application/json
//	GET /healthz   liveness: always 200 while the process serves
//	GET /readyz    readiness: 200; 503 once opt.Ready is false (drain)
//	               or the coordinator is degraded to read-only
//
// with every request recorded in the registry and optionally logged.
func NewObservedHandler(c *Coordinator, opt ServerOptions) http.Handler {
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	RegisterCoordinatorMetrics(c, reg)

	mux := http.NewServeMux()
	mux.Handle("/", apiMux(c, opt.RequestTimeout))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if acceptsJSON(r) {
			writeJSON(w, http.StatusOK, c.Metrics())
			return
		}
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = reg.WritePrometheus(w)
	})
	srvkit.Probes{
		Ready: opt.Ready,
		Degraded: func() (bool, string) {
			return c != nil && c.Degraded(), "read-only (journal failure)"
		},
		Detail: opt.ReadyDetail,
	}.Register(mux)
	return obs.Middleware(obs.MiddlewareConfig{
		Registry:  reg,
		Logger:    opt.Logger,
		PathLabel: pathLabel,
	}, mux)
}

// RegisterCoordinatorMetrics mirrors c's Metrics snapshot into reg as
// wbc_* gauges, refreshed at every scrape. NewObservedHandler calls it;
// headless deployments (cmd/wbcsim's final dump) call it directly.
func RegisterCoordinatorMetrics(c *Coordinator, reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.Help("wbc_volunteers_registered", "Volunteers ever registered.")
	reg.Help("wbc_volunteers_active", "Currently active volunteers.")
	reg.Help("wbc_tasks_issued", "Tasks issued, including reissues.")
	reg.Help("wbc_tasks_completed", "Submissions accepted.")
	reg.Help("wbc_submissions_audited", "Submissions audited inline.")
	reg.Help("wbc_bad_results_caught", "Audited submissions found wrong.")
	reg.Help("wbc_volunteers_banned", "Volunteers banned.")
	reg.Help("wbc_tasks_reissued", "Abandoned tasks reissued.")
	reg.Help("wbc_task_table_footprint", "Largest task index issued (table size).")
	reg.Help("wbc_active_leases", "Volunteers holding a live lease.")
	reg.Help("wbc_lease_expirations_total", "Volunteers expired for not heartbeating.")
	reg.Help("wbc_tasks_reclaimed_total", "Outstanding tasks orphaned by lease expiry.")
	reg.Help("wbc_degraded", "1 when a journal failure has made the coordinator read-only.")
	mirror := []struct {
		g   *obs.Gauge
		val func(Metrics) int64
	}{
		{reg.Gauge("wbc_volunteers_registered"), func(m Metrics) int64 { return m.Registered }},
		{reg.Gauge("wbc_volunteers_active"), func(m Metrics) int64 { return m.Active }},
		{reg.Gauge("wbc_tasks_issued"), func(m Metrics) int64 { return m.Issued }},
		{reg.Gauge("wbc_tasks_completed"), func(m Metrics) int64 { return m.Completed }},
		{reg.Gauge("wbc_submissions_audited"), func(m Metrics) int64 { return m.Audited }},
		{reg.Gauge("wbc_bad_results_caught"), func(m Metrics) int64 { return m.BadCaught }},
		{reg.Gauge("wbc_volunteers_banned"), func(m Metrics) int64 { return m.Bans }},
		{reg.Gauge("wbc_tasks_reissued"), func(m Metrics) int64 { return m.Reissues }},
		{reg.Gauge("wbc_task_table_footprint"), func(m Metrics) int64 { return m.Footprint }},
		{reg.Gauge("wbc_lease_expirations_total"), func(m Metrics) int64 { return m.LeaseExpirations }},
		{reg.Gauge("wbc_tasks_reclaimed_total"), func(m Metrics) int64 { return m.TasksReclaimed }},
	}
	leases := reg.Gauge("wbc_active_leases")
	degraded := reg.Gauge("wbc_degraded")
	reg.OnCollect(func() {
		m := c.Metrics()
		for _, e := range mirror {
			e.g.Set(e.val(m))
		}
		leases.Set(int64(c.ActiveLeases()))
		if c.Degraded() {
			degraded.Set(1)
		} else {
			degraded.Set(0)
		}
	})
}

// acceptsJSON reports whether the client asked for the legacy JSON
// snapshot. Only an explicit application/json (or +json suffix) opts in;
// wildcards and absent Accept headers get Prometheus text, which is what
// scrapers send.
func acceptsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json") || strings.Contains(accept, "+json")
}

// pathLabel bounds metric label cardinality to the fixed endpoint set: an
// internet-facing server must not mint one time series per scanned URL.
func pathLabel(r *http.Request) string {
	switch p := r.URL.Path; p {
	case "/register", "/next", "/submit", "/depart", "/heartbeat",
		"/attribute", "/metrics", "/healthz", "/readyz":
		return p
	default:
		return "other"
	}
}
