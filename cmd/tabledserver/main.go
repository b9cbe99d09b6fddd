// Command tabledserver serves a PF-addressed extendible table over the
// batched tabled JSON/HTTP API (§3 as a network service): clients get and
// set cells, and grow or shrink the live table, without the server ever
// remapping a surviving element — that is the pairing-function guarantee
// the daemon exists to demonstrate.
//
// Usage:
//
//	tabledserver -addr :8080 -mapping square-shell -shards 16 \
//	             -rows 1024 -cols 1024 \
//	             [-snapshot table.gob [-snapshot-every 30s]] \
//	             [-wal table.wal] [-faults SPEC] \
//	             [-replicate-from http://primary:8081] [-repl-ack 2s] \
//	             [-timeout 30s] [-drain 10s] [-maxbatch 4096] [-pprof]
//
// Then, from any HTTP client (or the typed tabled.Client):
//
//	curl -X POST localhost:8080/v1/batch -d '{"ops":[
//	    {"op":"set","x":1,"y":2,"v":"hello"},
//	    {"op":"get","x":1,"y":2},
//	    {"op":"resize","rows":2048,"cols":1024},
//	    {"op":"dims"},{"op":"stats"}]}'
//	curl localhost:8080/v1/stats
//	curl -X POST localhost:8080/v1/snapshot
//	curl localhost:8080/metrics      # Prometheus text
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//
// /v1/batch also speaks the compact binary wire format (docs/WIRE.md):
// POST the length-prefixed frame with Content-Type
// application/x-tabled-batch and the response comes back in the same
// encoding. Negotiation is per-request — JSON and binary clients share one
// endpoint, so a fleet can migrate (or roll back) client by client with no
// server flag. The binary path is the zero-allocation one; use it for bulk
// loads (tabledload -wire binary).
//
// The table is always the address-striped tabled.Sharded store; the E23
// baselines (a single-mutex Sync array, the §3-aside hash store) run
// in-process under tabledload -direct -backend sync|hash. The -mapping
// flag accepts any core.ByName form (diagonal, square-shell, aspect-AxB,
// hyperbolic, morton, ...).
//
// With -snapshot, the table is loaded from the file on boot when it
// exists (the mapping name inside the snapshot is checked), persisted
// every -snapshot-every (0 disables the timer), on POST /v1/snapshot, and
// once more during shutdown. Writes are atomic (temp file + fsync +
// rename): a crash mid-write never corrupts the previous snapshot. The
// file is CRC-framed (extarray.EncodeFramed): a damaged, truncated or
// older-format file is a logged refusal to boot and exit 1.
// Every save attempt is accounted
// under srvkit_persist_*{name="snapshot"}; after three consecutive
// failures /readyz stays 200 but its body flips to
// "ready (snapshot failing: N consecutive failures)".
//
// With -wal, every acknowledged set/resize is appended to a CRC-framed
// write-ahead log and fsynced before the HTTP response (a 200 means the
// write survives a crash); concurrent appends share one fsync, so there is
// no sync window to tune (-wal-sync is kept only for old command lines and
// accepts nothing but 0). On boot the server loads the newest snapshot (if
// any), then replays the WAL tail on top of it, truncating a torn final
// record. Snapshots checkpoint the log: the save and the truncation happen
// under one cut, so recovery is always snapshot + tail. If the WAL volume
// fails at runtime the server degrades to read-only (writes 503, reads
// 200, /readyz 503) instead of dying; a restart recovers.
//
// With -replicate-from, the server runs as a read-only FOLLOWER of the
// named primary (which must itself run with -wal): it pulls the primary's
// log over one persistent upgraded connection (GET /v1/repl/conn,
// docs/WIRE.md §8), applies every record locally, and re-appends it to its
// own WAL — a byte-identical suffix of the primary's record stream — with
// one fsync per pulled chunk before advancing. Requires -wal. A follower MAY also run with
// -snapshot: record numbering is durable (the WAL keeps a small .state
// sidecar carrying its base sequence and epoch history), so the follower
// checkpoints its own log like a primary does, and a checkpointed
// follower resumes tailing from its absolute position after a restart.
// POST /v1/promote flips it into a primary: the epoch is bumped durably
// FIRST (the fencing token — see DESIGN §5e), then the pull loop stops,
// writes open up, and the router fails the range over (see DESIGN §5d). A
// follower's /readyz reports "degraded: follower ..." — routable for
// reads.
//
// A follower running with -snapshot can also RESEED itself: when the
// primary answers 410 (it checkpointed past the follower's position) or
// 409 under a newer epoch (the follower's log is a stale fork — the
// ex-primary rejoin case), the follower downloads the primary's snapshot
// over /v1/repl/snapshot (CRC-framed, resumable, verified fail-closed),
// installs it atomically, and resumes tailing from the snapshot's cut.
// Without -snapshot those conditions remain sticky failures requiring an
// operator rebuild, as before.
//
// With -repl-ack on a primary, replication turns semi-synchronous: each
// write's HTTP response is withheld until the follower's pulls confirm it
// durable, or the wait expires and the ack is refused with a 503 (the
// write stays durable locally; the client retries). This is the CP
// choice — a dead follower stalls writes rather than widening the window
// of writes only the primary holds.
//
// -timeout bounds one batch, on /v1/batch or an exchange, from its
// arrival; an overrun answers a clean 503 ("batch timed out"). The
// handler enforces it: it checks the deadline after decode, after
// execution and before the reply, and ends a wait parked on another
// batch's WAL sync or on the replication ack at the deadline. The
// connection read/write deadlines are derived from it by
// srvkit.NewHTTPServer — the write deadline exceeds the timeout by
// srvkit.WriteSlack, so a slow batch gets its 503, never a dropped
// connection.
//
// The request log (stderr) holds one line per request that failed
// (non-2xx) or was slow; successful requests log at Debug, which the
// default level leaves out. http_requests_total and
// http_request_duration_seconds count every request.
//
// -faults enables the deterministic fault injector for chaos testing:
// "seed=7,errrate=0.05,latency=2ms,tornat=8192,syncerr=0.01" (see
// tabled.ParseFaults). Off by default and zero-cost when off.
//
// On SIGINT/SIGTERM the server flips /readyz to 503, drains in-flight
// requests for up to -drain, saves a final snapshot, and exits 0 on a
// clean drain. The final snapshot and WAL close run even when the drain
// deadline is missed — a slow drain costs the exit code, never the data.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/tabled"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	mapping := flag.String("mapping", "square-shell", "storage mapping (any core.ByName form)")
	shards := flag.Int("shards", 16, "shard count (rounded up to a power of two)")
	rows := flag.Int64("rows", 1024, "initial rows")
	cols := flag.Int64("cols", 1024, "initial cols")
	snapshot := flag.String("snapshot", "", "snapshot file: load on boot, save periodically and on shutdown")
	snapEvery := flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 = only on demand and shutdown)")
	walPath := flag.String("wal", "", "write-ahead log file: fsync every acked write, replay on boot")
	walSync := flag.Duration("wal-sync", 0, "removed: concurrent appends already share fsyncs; only 0 is accepted")
	replFrom := flag.String("replicate-from", "", "primary base URL: run as a read-only follower replicating its WAL (requires -wal; with -snapshot it can reseed)")
	replAck := flag.Duration("repl-ack", 0, "withhold write acks until a follower durably replicated them, 503 after this wait (0 = async replication; requires -wal)")
	faultSpec := flag.String("faults", "", "fault injection spec, e.g. seed=7,errrate=0.05,latency=2ms,tornat=8192,syncerr=0.01 (chaos testing)")
	maxBatch := flag.Int("maxbatch", tabled.DefaultMaxBatch, "max ops per /v1/batch request")
	reqTimeout := flag.Duration("timeout", tabled.DefaultBatchTimeout, "per-batch deadline on /v1/batch and exchanges, from arrival (503 \"batch timed out\" on overrun; negative = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *replFrom != "" && *walPath == "" {
		fmt.Fprintln(os.Stderr, "tabledserver: -replicate-from requires -wal")
		return 2
	}
	if *walSync != 0 {
		fmt.Fprintln(os.Stderr, "tabledserver: -wal-sync was removed: concurrent appends already share fsyncs; only 0 is accepted")
		return 2
	}
	if *replAck > 0 && *walPath == "" {
		fmt.Fprintln(os.Stderr, "tabledserver: -repl-ack requires -wal")
		return 2
	}

	f, err := core.ByName(*mapping)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabledserver:", err)
		return 2
	}
	faults, err := tabled.ParseFaults(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabledserver:", err)
		return 2
	}
	injector := tabled.NewFaultInjector(faults)
	if faults != nil {
		logger.Warn("fault injection enabled", "spec", *faultSpec)
	}

	reg := obs.NewRegistry()
	ready := obs.NewFlag(true)
	m := tabled.NewMetrics(reg, *shards)
	newStore := func() extarray.Store[string] { return extarray.NewSlabStore() }

	var (
		saveSnap  func() error
		wal       *tabled.WAL
		follower  *tabled.Follower
		writable  *obs.Flag
		sh        *tabled.Sharded[string]
		snapSeq   uint64
		snapEpoch uint64
	)
	if *snapshot != "" {
		if _, statErr := os.Stat(*snapshot); statErr == nil {
			// A truncated or bit-rotted snapshot must be a clean refusal
			// to boot (operator intervention), never a decode panic.
			sh, snapSeq, snapEpoch, err = tabled.LoadShardedFileMeta[string](*snapshot, f, *shards, newStore, m)
			if err != nil {
				logger.Error("snapshot load", "path", *snapshot, "err", err)
				return 1
			}
			r, c := sh.Dims()
			logger.Info("snapshot loaded", "path", *snapshot, "rows", r, "cols", c,
				"cells", sh.Len(), "repl_seq", snapSeq, "repl_epoch", snapEpoch)
		}
	}
	if sh == nil {
		sh, err = tabled.NewSharded[string](f, *shards, newStore, *rows, *cols, m)
		if err != nil {
			logger.Error("backend", "err", err)
			return 1
		}
	}
	if *walPath != "" {
		// Recovery = newest snapshot (loaded above) + WAL tail replayed
		// on top; a torn final record is truncated, not fatal. The
		// .state sidecar keeps the log's base sequence and epoch marks
		// durable, and the snapshot's embedded cut resolves any crash
		// window between a snapshot write and the log reset.
		var replayed int
		wal, replayed, err = tabled.OpenWAL(*walPath,
			func(rec tabled.WALRecord) error { return tabled.ApplyWALRecord(sh, rec) },
			tabled.WALOptions{
				Metrics:       m,
				WrapFile:      injector.WrapWALFile,
				StatePath:     *walPath + ".state",
				SnapshotSeq:   snapSeq,
				SnapshotEpoch: snapEpoch,
			})
		if err != nil {
			logger.Error("wal open", "path", *walPath, "err", err)
			return 1
		}
		base, next := wal.SeqState()
		logger.Info("wal open", "path", *walPath, "replayed", replayed,
			"bytes", wal.Size(), "seq", fmt.Sprintf("[%d,%d)", base, next),
			"epoch", wal.Epoch())
	}
	if *replFrom != "" {
		// The boot position is absolute: the sidecar base plus the
		// replayed records — checkpointed records keep their numbers,
		// so a checkpointing follower still presents the right `from`.
		writable = obs.NewFlag(false)
		_, next := wal.SeqState()
		fopt := tabled.FollowerOptions{
			Source:   *replFrom,
			Writable: writable,
			Metrics:  m,
			Logger:   logger,
		}
		if *snapshot != "" {
			// Reseed capability: stranded (410) or forked-under-a-newer-
			// epoch (409) followers rebuild from the primary's snapshot
			// instead of sticking.
			fopt.SnapshotPath = *snapshot
			fopt.Restore = sh.RestoreSnapshot
		}
		follower = tabled.NewFollower(sh, wal, next, fopt)
		logger.Info("follower mode", "source", *replFrom, "position", next,
			"reseed", *snapshot != "")
	}
	if *snapshot != "" {
		path := *snapshot
		saveSnap = func() error { return sh.SaveFileAt(path, 0, 0) }
		if wal != nil {
			// Checkpoint: the snapshot save and the log reset share one
			// cut, so recovery stays snapshot + tail with nothing lost
			// and nothing applied twice. The cut sequence and epoch are
			// stamped into the snapshot for the boot rule above.
			w := wal
			saveSnap = func() error {
				e := w.Epoch()
				return w.CheckpointSeq(func(cut uint64) error { return sh.SaveFileAt(path, cut, e) })
			}
		}
		if follower != nil {
			// A reseed install must never interleave with a checkpoint:
			// both rewrite the snapshot/WAL pair.
			inner := saveSnap
			saveSnap = func() error { return follower.GuardInstall(inner) }
		}
	}
	table := injector.WrapBackend(sh)

	// Every snapshot save — periodic, on-demand (/v1/snapshot), and the
	// shutdown one — goes through the persist scheduler, so failures are
	// counted, exported, and surfaced in the /readyz detail text.
	var persist *srvkit.Persist
	if saveSnap != nil {
		persist = srvkit.NewPersist(srvkit.PersistConfig{
			Name:     "snapshot",
			Save:     saveSnap,
			Every:    *snapEvery,
			Registry: reg,
			Logger:   logger,
		})
	}

	// Any server with a WAL serves the replication surface: a primary so a
	// follower can chain from it, a follower so a promoted one already has
	// its own pull route for the next follower.
	var repl *tabled.Repl
	if wal != nil {
		repl = &tabled.Repl{WAL: wal, Follower: follower, Metrics: m, Logger: logger}
		if *replAck > 0 {
			repl.Gate = &tabled.ReplGate{Timeout: *replAck}
			logger.Info("semi-synchronous replication", "ack_timeout", *replAck)
		}
		// Snapshot transfer for stranded followers: /v1/repl/snapshot
		// streams a cut-consistent snapshot spooled next to the WAL.
		repl.Snap = &tabled.ReplSnapshots{
			WAL:      wal,
			Save:     sh.SaveAt,
			Dir:      filepath.Dir(*walPath),
			Injector: injector,
			Metrics:  m,
			Logger:   logger,
		}
	}

	opt := tabled.ServerOptions{
		Registry:     reg,
		Metrics:      m,
		Logger:       logger,
		Ready:        ready,
		MaxBatch:     *maxBatch,
		BatchTimeout: *reqTimeout,
		WAL:          wal,
		Writable:     writable,
		Repl:         repl,
		ReadyDetail:  persist.Detail,
	}
	if persist != nil {
		opt.Snapshot = persist.SaveNow
	}
	if follower != nil {
		opt.ReadOnlyDetail = func() string {
			return fmt.Sprintf("follower replicating from %s, lag %d", *replFrom, follower.Lag())
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", tabled.NewHandler(table, opt))
	if *pprofOn {
		srvkit.MountPprof(mux)
	}

	info := table.Describe()
	servedRows, servedCols := sh.Dims()
	logger.Info("serving",
		"addr", *addr, "backend", info.Backend, "mapping", *mapping,
		"shards", info.Shards, "rows", servedRows, "cols", servedCols,
		"snapshot", *snapshot, "timeout", *reqTimeout, "pprof", *pprofOn,
		"wire", "json+binary ("+tabled.ContentTypeBinary+")")

	lc := srvkit.Lifecycle{
		Server:       srvkit.NewHTTPServer(*addr, mux, *reqTimeout),
		Ready:        ready,
		Logger:       logger,
		DrainTimeout: *drain,
		Background:   []func(context.Context){persist.Run},
	}
	if follower != nil {
		// The pull loop is a background task: canceled after the drain and
		// waited for before the Final wal close, so no frame is mid-append
		// when the log shuts.
		lc.Background = append(lc.Background, follower.Run)
	}
	if persist != nil {
		lc.Final = append(lc.Final, srvkit.Step{Name: "final snapshot", Run: persist.SaveNow})
	}
	if wal != nil {
		lc.Final = append(lc.Final, srvkit.Step{Name: "wal close", Run: wal.Close})
	}
	return lc.Run(context.Background())
}
