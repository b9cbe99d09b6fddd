// Command wbcserver serves the §4 Web-Based Computing website: a JSON/HTTP
// API over the APF task-allocation coordinator. Volunteers register, fetch
// prime-counting tasks, and submit results; the project head can query
// attribution of any task index and live metrics.
//
// Usage:
//
//	wbcserver -addr :8080 -apf T# -audit 0.25 -strikes 2 -span 1000 \
//	          -wal wbc.wal -checkpoint wbc.ckpt \
//	          -checkpoint-every 1m -lease 30s -drain 10s [-pprof]
//
// Then, from any HTTP client:
//
//	curl -X POST localhost:8080/register -d '{"speed":1}'
//	curl -X POST localhost:8080/next     -d '{"volunteer":1}'
//	curl -X POST localhost:8080/submit   -d '{"volunteer":1,"task":3,"result":168}'
//	curl -X POST localhost:8080/heartbeat -d '{"volunteer":1}'
//	curl 'localhost:8080/attribute?task=3'
//	curl localhost:8080/metrics                                   # Prometheus text
//	curl -H 'Accept: application/json' localhost:8080/metrics     # legacy JSON
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//
// Durability: with -wal, every acknowledged mutation is journaled and
// fsynced (concurrent mutations share one fsync) before the HTTP
// response, so registration, issuance, and attribution survive kill -9.
// Boot recovery loads the newest -checkpoint (if present) and replays the
// journal tail; a corrupt journal or checkpoint (CRC-framed: any flipped
// bit or truncation) is a clean nonzero exit, a torn final journal record
// is truncated. -checkpoint-every snapshots
// periodically and truncates the journal under the append lock; every
// checkpoint attempt is accounted under srvkit_persist_*{name="checkpoint"},
// and after three consecutive failures /readyz stays 200 but its body
// flips to "ready (checkpoint failing: N consecutive failures)". A journal
// write failure degrades the server to read-only (mutations 503,
// attribution and metrics 200, /readyz 503 "degraded") instead of
// killing it.
//
// Self-healing: with -lease, a volunteer that stays silent past the TTL
// (no next/submit/heartbeat) is implicitly departed by the lease sweeper;
// its outstanding tasks are reissued to surviving volunteers with exact
// attribution overrides.
//
// -timeout bounds one volunteer-protocol request, enforced by the
// handlers themselves: a request found past it after decoding or before
// its reply, or parked past it behind another mutation's journal fsync,
// answers a clean 503 {"error":"request timed out"} without degrading
// the server. Request bodies are capped at 4 KiB (413 past it). The
// connection read/write deadlines are derived from -timeout by
// srvkit.NewHTTPServer, so the write deadline always exceeds it by
// srvkit.WriteSlack and an overrun gets its 503, never a dropped
// connection.
//
// On SIGINT/SIGTERM the server flips /readyz to 503, drains in-flight
// requests for up to -drain, takes a final checkpoint, and exits 0 on a
// clean drain. The final checkpoint and journal close run even when the
// drain deadline is missed. With -pprof, the net/http/pprof profiling
// handlers are mounted under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"pairfn/internal/apf"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/wbc"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	apfName := flag.String("apf", "T#", "task-allocation APF (T<1> T<2> T<3> T# T[2] T*)")
	audit := flag.Float64("audit", 0.25, "inline audit probability")
	strikes := flag.Int("strikes", 2, "strikes before ban")
	span := flag.Int64("span", 1000, "prime-count block width")
	seed := flag.Int64("seed", time.Now().UnixNano()%1e9, "audit sampling seed")
	wal := flag.String("wal", "", "journal file for crash-safe mutations (empty = in-memory only)")
	ckpt := flag.String("checkpoint", "", "checkpoint file (loaded at boot if present; written at shutdown)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 = shutdown only)")
	lease := flag.Duration("lease", 0, "volunteer lease TTL; silent volunteers are expired and their tasks reclaimed (0 = off)")
	reqTimeout := flag.Duration("timeout", 10*time.Second, "per-request handler timeout for the volunteer protocol")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var f apf.APF
	switch *apfName {
	case "T<1>":
		f = apf.NewTC(1)
	case "T<2>":
		f = apf.NewTC(2)
	case "T<3>":
		f = apf.NewTC(3)
	case "T#":
		f = apf.NewTHash()
	case "T[2]":
		f = apf.NewTPow(2)
	case "T*":
		f = apf.NewTStar()
	default:
		fmt.Fprintf(os.Stderr, "wbcserver: unknown APF %q\n", *apfName)
		return 2
	}

	reg := obs.NewRegistry()
	ready := obs.NewFlag(true)
	cfg := wbc.Config{
		APF:         f,
		Workload:    wbc.PrimeCount{Span: *span},
		AuditRate:   *audit,
		StrikeLimit: *strikes,
		Seed:        *seed,
		LeaseTTL:    *lease,
		Obs:         reg,
	}

	// Boot recovery: newest checkpoint (when one exists), then the
	// journal tail. Either being unreadable is a clean failed boot — an
	// accountability service must not start from silently corrupt state.
	var c *wbc.Coordinator
	var err error
	if *ckpt != "" {
		if _, statErr := os.Stat(*ckpt); statErr == nil {
			c, err = wbc.RestoreFile(*ckpt, cfg)
			if err != nil {
				logger.Error("checkpoint restore failed", "path", *ckpt, "err", err)
				return 1
			}
			logger.Info("checkpoint restored", "path", *ckpt)
		}
	}
	if c == nil {
		c, err = wbc.NewCoordinator(cfg)
		if err != nil {
			logger.Error("coordinator", "err", err)
			return 1
		}
	}

	var journal *wbc.Journal
	if *wal != "" {
		j, replayed, jerr := wbc.OpenJournal(*wal, c, wbc.JournalOptions{
			Obs: reg,
			OnDegrade: func(err error) {
				logger.Error("journal failure: entering read-only degraded mode", "err", err)
			},
		})
		if jerr != nil {
			logger.Error("journal recovery failed", "path", *wal, "err", jerr)
			return 1
		}
		journal = j
		logger.Info("journal open", "path", *wal, "replayed", replayed)
	}

	// Every checkpoint — periodic and the shutdown one — goes through the
	// persist scheduler, so failures are counted, exported, and surfaced
	// in the /readyz detail text.
	var persist *srvkit.Persist
	if *ckpt != "" {
		path := *ckpt
		persist = srvkit.NewPersist(srvkit.PersistConfig{
			Name:     "checkpoint",
			Save:     func() error { return c.SaveCheckpoint(path) },
			Every:    *ckptEvery,
			Registry: reg,
			Logger:   logger,
		})
	}

	var background []func(context.Context)
	if *lease > 0 {
		sweep := *lease / 4
		if sweep < 10*time.Millisecond {
			sweep = 10 * time.Millisecond
		}
		background = append(background, func(ctx context.Context) {
			c.RunLeaseSweeper(ctx, sweep)
		})
		logger.Info("lease sweeper running", "ttl", *lease, "sweep", sweep)
	}
	background = append(background, persist.Run)

	mux := http.NewServeMux()
	mux.Handle("/", wbc.NewObservedHandler(c, wbc.ServerOptions{
		Registry:       reg,
		Logger:         logger,
		Ready:          ready,
		RequestTimeout: *reqTimeout,
		ReadyDetail:    persist.Detail,
	}))
	if *pprofOn {
		srvkit.MountPprof(mux)
	}

	logger.Info("serving",
		"workload", "prime-count", "apf", f.Name(), "addr", *addr,
		"audit", *audit, "strikes", *strikes, "timeout", *reqTimeout,
		"wal", *wal, "checkpoint", *ckpt, "lease", *lease, "pprof", *pprofOn)

	lc := srvkit.Lifecycle{
		Server:       srvkit.NewHTTPServer(*addr, mux, *reqTimeout),
		Ready:        ready,
		Logger:       logger,
		DrainTimeout: *drain,
		Background:   background,
	}
	if persist != nil {
		lc.Final = append(lc.Final, srvkit.Step{Name: "final checkpoint", Run: persist.SaveNow})
	}
	if journal != nil {
		lc.Final = append(lc.Final, srvkit.Step{Name: "journal close", Run: journal.Close})
	}
	return lc.Run(context.Background())
}
