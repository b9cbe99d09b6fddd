// Command tabledrouter is the routing front door of a tabledcluster: a
// stateless proxy that splits the storage mapping's address space into
// contiguous ranges owned by N tabledserver members, partitions every
// /v1/batch by owning node with the same counting-sort plan the in-process
// sharded backend uses, fans the sub-batches out concurrently over pooled
// upgraded connections (docs/WIRE.md §7), and merges the replies back into
// request order. Members must serve that upgrade route: there is no
// per-request HTTP fallback, so upgrade members before routers. To clients
// it is wire-compatible with a single tabledserver — tabled.Client and
// tabledload point at it unchanged, in JSON or binary wire.
//
// Usage:
//
//	tabledrouter -addr :8090 -spec cluster.json \
//	             [-node-timeout 5s] [-retries 3] \
//	             [-health-every 500ms] [-health-timeout 2s] \
//	             [-rate 0 -rate-window 1s] \
//	             [-timeout 30s] [-drain 10s] [-maxbatch 4096] [-pprof]
//
// The cluster spec is a JSON file (see cluster.ParseSpec):
//
//	{"mapping": "square-shell",
//	 "nodes": [
//	   {"name": "n0", "base": "http://127.0.0.1:8081", "lo": 1,     "hi": 30000,
//	    "replica": "http://127.0.0.1:9081"},
//	   {"name": "n1", "base": "http://127.0.0.1:8082", "lo": 30000, "hi": 60000},
//	   {"name": "n2", "base": "http://127.0.0.1:8083", "lo": 60000, "hi": 1099511627776}]}
//
// A node's optional replica is a tabledserver started with
// -replicate-from pointing at its base. While the primary is degraded or
// down the router serves that range's reads from the replica; once the
// replica is promoted (POST /v1/promote) the health checker observes the
// role change and writes fail over too — no router restart.
//
// In -spec mode the file is live: the router re-reads it on SIGHUP and on
// an mtime change (every -spec-poll), builds a fresh routing table, and
// swaps it in between requests. An invalid edit is rejected and logged
// while the old spec keeps serving. -replicas pairs with -nodes the same
// way (positional, empty entries skip).
//
// Ranges must tile the address space from 1 contiguously; the last range's
// hi is the cluster's growth headroom (addresses past it answer a per-op
// routing error). For quick starts, -nodes skips the file: a comma list of
// base URLs split evenly over [1, -max-addr) with -mapping:
//
//	tabledrouter -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	             -mapping square-shell -max-addr 1000000
//
// The router holds no durable state — run as many as you like behind any
// load balancer. Client idempotency keys are propagated: each sub-batch
// carries a key derived from the client's Idempotency-Key, so end-to-end
// retries replay from the members' caches instead of double-applying.
//
// An active health checker polls every member's /readyz each
// -health-every. Members reporting degraded (read-only after a WAL
// failure) keep receiving reads while writes for their range fail fast
// with a typed error; unreachable members fail fast entirely. The
// router's own /readyz stays 200 while members are down — the healthy
// ranges must keep serving — with the trouble in the ready detail
// ("ready (1/3 nodes unhealthy: node-2 down)") and on /v1/cluster.
//
// -rate enables per-client-IP admission control on /v1/batch: a sliding
// window of -rate requests per -rate-window, refusing the excess with 429.
//
// On SIGINT/SIGTERM the router flips /readyz to 503, drains for up to
// -drain, and exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"pairfn/internal/cluster"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/srvkit"
	"pairfn/internal/tabled"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8090", "listen address")
	specPath := flag.String("spec", "", "cluster spec JSON file (see cmd doc for the format)")
	nodes := flag.String("nodes", "", "comma-separated member base URLs (even split; alternative to -spec)")
	mapping := flag.String("mapping", "square-shell", "storage mapping every member runs (with -nodes)")
	maxAddr := flag.Int64("max-addr", 1<<20, "address space split evenly across -nodes; the last node absorbs all growth past it")
	nodeTimeout := flag.Duration("node-timeout", 5*time.Second, "per-attempt deadline for one member sub-batch")
	retries := flag.Int("retries", 3, "attempts per member sub-batch (1 = no retry)")
	healthEvery := flag.Duration("health-every", cluster.DefaultHealthInterval, "interval between member /readyz sweeps")
	healthTimeout := flag.Duration("health-timeout", cluster.DefaultHealthTimeout, "per-probe timeout")
	replicas := flag.String("replicas", "", "comma-separated replica URLs matched positionally to -nodes (empty entries skip a node; with -spec, put replicas in the file)")
	specPoll := flag.Duration("spec-poll", srvkit.DefaultReloadPoll, "with -spec: poll interval for live spec reloads (SIGHUP also reloads; negative disables polling)")
	rate := flag.Int("rate", 0, "per-client-IP /v1/batch requests per -rate-window (0 = unlimited)")
	rateWindow := flag.Duration("rate-window", time.Second, "sliding admission window")
	maxBatch := flag.Int("maxbatch", tabled.DefaultMaxBatch, "max ops per /v1/batch request")
	reqTimeout := flag.Duration("timeout", tabled.DefaultBatchTimeout, "per-request handler timeout for /v1/batch (503 on overrun; negative = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	replicaReads := flag.Bool("replica-reads", false, "offload all-read sub-batches to healthy nodes' live replicas")
	replicaReadLag := flag.Uint64("replica-read-lag", cluster.DefaultReplicaReadMaxLag, "with -replica-reads: max replica record lag before reads stay on the primary")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	reg := obs.NewRegistry()
	ready := obs.NewFlag(true)
	var pol *retry.Policy
	if *retries > 1 {
		pol = &retry.Policy{Base: 50 * time.Millisecond, Max: time.Second, MaxAttempts: *retries}
	}
	copt := cluster.Options{
		Retry:             pol,
		NodeTimeout:       *nodeTimeout,
		Registry:          reg,
		Logger:            logger,
		ReplicaReads:      *replicaReads,
		ReplicaReadMaxLag: *replicaReadLag,
		Health: cluster.CheckerOptions{
			Interval: *healthEvery,
			Timeout:  *healthTimeout,
		},
	}

	var (
		src cluster.RouterSource
		bg  []func(context.Context)
	)
	switch {
	case *specPath != "" && *nodes != "":
		fmt.Fprintln(os.Stderr, "tabledrouter: -spec and -nodes are mutually exclusive")
		return 2
	case *specPath != "":
		if *replicas != "" {
			fmt.Fprintln(os.Stderr, "tabledrouter: -replicas goes with -nodes; with -spec, set each node's replica field in the file")
			return 2
		}
		// Spec-file mode reconfigures live: edit the file (promote a
		// replica, move a boundary) and SIGHUP the router — or just wait
		// for the poll. The running router serves until the new one is
		// built and baselined; a botched edit is rejected and logged.
		rl, err := cluster.NewReloader(*specPath, copt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tabledrouter:", err)
			return 2
		}
		src = rl
		bg = append(bg, rl.Run, srvkit.ConfigWatcher{
			Path:   *specPath,
			Poll:   *specPoll,
			Reload: rl.Reload,
			Logger: logger,
		}.Run)
	case *nodes != "":
		// The last node's range is open-ended so the cluster keeps routing
		// as the table grows past -max-addr, as the flag promises.
		spec, err := cluster.EvenSpec(*mapping, strings.Split(*nodes, ","), *maxAddr, math.MaxInt64)
		if err == nil && *replicas != "" {
			err = spec.WithReplicas(strings.Split(*replicas, ","))
		}
		var rt *cluster.Router
		if err == nil {
			rt, err = cluster.New(spec, copt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tabledrouter:", err)
			return 2
		}
		src = rt
		bg = append(bg, rt.Health().Run)
	default:
		fmt.Fprintln(os.Stderr, "tabledrouter: one of -spec or -nodes is required")
		return 2
	}
	rt := src.Router()
	spec := rt.Spec()
	// Baseline the member states before accepting traffic so a member that
	// is already down fails fast from the first request.
	rt.Health().CheckNow(context.Background())

	mux := http.NewServeMux()
	mux.Handle("/", cluster.NewHandler(src, cluster.HandlerOptions{
		MaxBatch:     *maxBatch,
		BatchTimeout: *reqTimeout,
		Limiter:      &cluster.Limiter{Limit: *rate, Window: *rateWindow},
		Registry:     reg,
		Logger:       logger,
		Ready:        ready,
	}))
	if *pprofOn {
		srvkit.MountPprof(mux)
	}

	for i, n := range spec.Nodes {
		logger.Info("member", "node", n.Name, "base", n.Base, "replica", n.Replica,
			"lo", n.Lo, "hi", n.Hi, "state", rt.Health().State(i).String())
	}
	logger.Info("routing", "addr", *addr, "mapping", spec.Mapping, "nodes", len(spec.Nodes),
		"retries", *retries, "rate", *rate,
		"health_every", *healthEvery, "timeout", *reqTimeout, "pprof", *pprofOn)

	lc := srvkit.Lifecycle{
		Server:       srvkit.NewHTTPServer(*addr, mux, *reqTimeout),
		Ready:        ready,
		Logger:       logger,
		DrainTimeout: *drain,
		Background:   bg,
	}
	return lc.Run(context.Background())
}
