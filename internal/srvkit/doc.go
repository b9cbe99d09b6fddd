// Package srvkit is the shared production-server kit behind
// cmd/tabledserver and cmd/wbcserver (and every future pairfn service:
// the tabledcluster router, follower nodes, a tuple or spread-query
// API). Both daemons used to hand-roll the same stack — body caps,
// http.TimeoutHandler wiring, probes, degraded read-only mode, graceful
// drain, periodic snapshot/checkpoint timers — and the copies drifted
// into real bugs (tabledserver pinned WriteTimeout at 2m regardless of
// the request timeout, so a long batch timeout ended in a dropped
// connection instead of the promised 503). srvkit is that stack,
// written once:
//
//   - DeriveTimeouts / NewHTTPServer: the http.Server deadlines are a
//     function of the per-request timeout, computed in exactly one
//     place, with WriteTimeout always comfortably beyond the 503 that
//     answers an overrun.
//   - APIStack: the hardening middleware for API routes — request flow
//     is TimeoutHandler → MaxBytesReader → handler — applied only to
//     the routes that opt in, so /healthz, /readyz, /metrics and pprof
//     are never starved by a slow API timeout. The TimeoutHandler (a
//     goroutine, timer and response copy per request) is for handlers
//     that cannot enforce a deadline themselves: tabled's batch
//     handlers carry their deadline through their stages instead and
//     use APIStack for the body cap alone.
//   - Degraded: the sticky read-only state machine (flip a writable
//     flag, set a gauge, log once, fire hooks once) shared by the WAL-
//     and journal-failure paths.
//   - Probes: uniform /healthz and /readyz handlers — draining 503,
//     "degraded: <detail>" 503, and a ready body whose detail text can
//     surface operational warnings (e.g. a failing persist loop).
//   - Lifecycle: signal → readiness down → drain with deadline →
//     background-task stop → final persist steps → exit code. Final
//     steps always run, even when the drain deadline expired — a slow
//     drain must not cost the final snapshot.
//   - Upgrade / UpgradedConn.Serve: the exchange loop of a connection
//     taken over with an HTTP/1.1 Upgrade — idle deadline, wait for a
//     request's first byte, mark it busy, run one exchange, flush —
//     written once for every upgraded wire, and tracked by Upgrades so
//     a drain closes idle connections and ends busy ones after their
//     exchange in flight.
//   - Persist: the periodic snapshot/checkpoint scheduler with failure
//     accounting (consecutive-failure gauge,
//     srvkit_persist_last_success_timestamp_seconds) instead of
//     log-and-forget loops.
//
// Everything is stdlib + internal/obs; nothing here knows about tables
// or volunteers. scripts/srvkit_guard.sh keeps the mains honest: a
// cmd/*server constructing http.Server or signal plumbing directly
// fails CI, and so does an APIStack RequestTimeout in internal/tabled or
// internal/cluster.
package srvkit
