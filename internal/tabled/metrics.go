package tabled

import (
	"strconv"
	"time"

	"pairfn/internal/obs"
)

// defBatchBuckets bucket batch sizes in powers of four from 1 to 4096.
var defBatchBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}

// Metrics is the tabled instrumentation bundle: per-shard op counters plus
// batch-size and latency histograms, all registered under tabled_*. A nil
// *Metrics is valid and records nothing, so stores and servers can be wired
// unconditionally.
type Metrics struct {
	shardOpsC []*obs.Counter
	batchSize *obs.Histogram
	opsTotal  map[string]*obs.Counter
	opErrors  map[string]*obs.Counter
	batchDur  map[string]*obs.Histogram
	snapOK    *obs.Counter
	snapErr   *obs.Counter
	snapDur   *obs.Histogram

	walAppends     *obs.Counter
	walBytes       *obs.Counter
	walSyncOK      *obs.Counter
	walSyncErr     *obs.Counter
	walSyncDurH    *obs.Histogram
	walSizeG       *obs.Gauge
	walReplayed    *obs.Counter
	walTornTails   *obs.Counter
	walCheckpoints *obs.Counter
	degradedG      *obs.Gauge
	idemHits       *obs.Counter
	connExchanges  *obs.Counter
	connsOpenG     *obs.Gauge

	replServedRecs  *obs.Counter
	replServedBytes *obs.Counter
	replPulls       map[string]*obs.Counter
	replAppliedRecs *obs.Counter
	replLagG        *obs.Gauge
	replPromotions  *obs.Counter
	replPromoteDur  *obs.Histogram
	replAckWaits    *obs.Counter
	replAckTimeouts *obs.Counter

	replEpochG        *obs.Gauge
	replFencedG       *obs.Gauge
	replReseedsOK     *obs.Counter
	replReseedsErr    *obs.Counter
	replReseedBytes   *obs.Counter
	replReseedDur     *obs.Histogram
	replLastReseedG   *obs.Gauge
	replSnapServes    *obs.Counter
	replSnapServeErrs *obs.Counter
	replSnapBytes     *obs.Counter
}

// opNames are the batch op kinds instrumented per-op.
var opNames = []string{"get", "set", "resize", "dims", "stats"}

// NewMetrics registers the tabled metric families on reg (nil reg → nil
// Metrics) for a table of nshards shards.
func NewMetrics(reg *obs.Registry, nshards int) *Metrics {
	if reg == nil {
		return nil
	}
	reg.Help("tabled_shard_ops_total", "Cell operations routed to each shard (by PF address stripe).")
	reg.Help("tabled_ops_total", "Batch-API operations executed, by op.")
	reg.Help("tabled_op_errors_total", "Batch-API operations that returned an error, by op.")
	reg.Help("tabled_batch_cells", "Cells per batched get/set call.")
	reg.Help("tabled_batch_duration_seconds", "Latency of batch-API op groups, by op.")
	reg.Help("tabled_snapshots_total", "Snapshot attempts, by result.")
	reg.Help("tabled_snapshot_duration_seconds", "Snapshot save latency.")
	reg.Help("tabled_wal_appends_total", "WAL records appended (one set batch or resize each).")
	reg.Help("tabled_wal_appended_bytes_total", "Bytes appended to the WAL, framing included.")
	reg.Help("tabled_wal_syncs_total", "WAL fsyncs, by result (concurrent appends share one sync).")
	reg.Help("tabled_wal_sync_duration_seconds", "WAL fsync latency.")
	reg.Help("tabled_wal_size_bytes", "Current WAL length; drops to zero at each checkpoint.")
	reg.Help("tabled_wal_replayed_records_total", "Records replayed from the WAL at boot.")
	reg.Help("tabled_wal_torn_tails_total", "Torn or corrupt WAL tails truncated at boot.")
	reg.Help("tabled_wal_checkpoints_total", "Snapshot checkpoints that reset the WAL.")
	reg.Help("tabled_degraded", "1 while the server is in read-only degraded mode (WAL volume failed).")
	reg.Help("tabled_idempotent_replays_total", "Batch requests answered from the idempotency cache without re-executing.")
	reg.Help("tabled_conn_exchanges_total", "Batch exchanges served on upgraded connections (the router's member wire).")
	reg.Help("tabled_conns_open", "Upgraded batch connections currently open.")
	reg.Help("tabled_repl_served_records_total", "WAL records served to followers in pull exchanges on /v1/repl/conn connections.")
	reg.Help("tabled_repl_served_bytes_total", "Framed bytes served to followers in pull exchanges.")
	reg.Help("tabled_repl_pulls_total", "Pull exchanges this follower got a reply to, by result: ok (200), diverged (409, 410), error (other).")
	reg.Help("tabled_repl_applied_records_total", "Primary WAL records applied by this follower.")
	reg.Help("tabled_repl_lag_records", "Follower record lag behind the primary's durable horizon at the last pull.")
	reg.Help("tabled_repl_promotions_total", "Follower-to-primary promotions performed.")
	reg.Help("tabled_repl_promote_duration_seconds", "Latency of the promote transition (pull-loop stop through writable flip).")
	reg.Help("tabled_repl_ack_waits_total", "Write batches that waited on the replication ack gate.")
	reg.Help("tabled_repl_ack_timeouts_total", "Write batches whose ack was refused because the follower did not confirm in time.")
	reg.Help("tabled_repl_epoch", "This node's current primary epoch (bumped durably at every promotion).")
	reg.Help("tabled_repl_fenced", "1 once this node has observed a newer primary epoch than its own and fenced itself read-only.")
	reg.Help("tabled_repl_reseeds_total", "Snapshot-transfer reseeds, by result (an 'error' attempt is retried).")
	reg.Help("tabled_repl_reseed_bytes_total", "Snapshot bytes fetched by reseeds, failed attempts included.")
	reg.Help("tabled_repl_reseed_duration_seconds", "Latency of one successful reseed, fetch through install.")
	reg.Help("tabled_repl_last_reseed_timestamp_seconds", "Unix time of the last successful reseed (0 = never).")
	reg.Help("tabled_repl_snapshot_serves_total", "/v1/repl/snapshot responses streamed, by result.")
	reg.Help("tabled_repl_snapshot_served_bytes_total", "Snapshot bytes streamed to reseeding followers.")
	m := &Metrics{
		batchSize: reg.Histogram("tabled_batch_cells", defBatchBuckets),
		opsTotal:  make(map[string]*obs.Counter, len(opNames)),
		opErrors:  make(map[string]*obs.Counter, len(opNames)),
		batchDur:  make(map[string]*obs.Histogram, len(opNames)),
		snapOK:    reg.Counter("tabled_snapshots_total", obs.L("result", "ok")),
		snapErr:   reg.Counter("tabled_snapshots_total", obs.L("result", "error")),
		snapDur:   reg.Histogram("tabled_snapshot_duration_seconds", obs.DefDurationBuckets),

		walAppends:     reg.Counter("tabled_wal_appends_total"),
		walBytes:       reg.Counter("tabled_wal_appended_bytes_total"),
		walSyncOK:      reg.Counter("tabled_wal_syncs_total", obs.L("result", "ok")),
		walSyncErr:     reg.Counter("tabled_wal_syncs_total", obs.L("result", "error")),
		walSyncDurH:    reg.Histogram("tabled_wal_sync_duration_seconds", obs.DefDurationBuckets),
		walSizeG:       reg.Gauge("tabled_wal_size_bytes"),
		walReplayed:    reg.Counter("tabled_wal_replayed_records_total"),
		walTornTails:   reg.Counter("tabled_wal_torn_tails_total"),
		walCheckpoints: reg.Counter("tabled_wal_checkpoints_total"),
		degradedG:      reg.Gauge("tabled_degraded"),
		idemHits:       reg.Counter("tabled_idempotent_replays_total"),
		connExchanges:  reg.Counter("tabled_conn_exchanges_total"),
		connsOpenG:     reg.Gauge("tabled_conns_open"),

		replServedRecs:  reg.Counter("tabled_repl_served_records_total"),
		replServedBytes: reg.Counter("tabled_repl_served_bytes_total"),
		replPulls:       make(map[string]*obs.Counter, 3),
		replAppliedRecs: reg.Counter("tabled_repl_applied_records_total"),
		replLagG:        reg.Gauge("tabled_repl_lag_records"),
		replPromotions:  reg.Counter("tabled_repl_promotions_total"),
		replPromoteDur:  reg.Histogram("tabled_repl_promote_duration_seconds", obs.DefDurationBuckets),
		replAckWaits:    reg.Counter("tabled_repl_ack_waits_total"),
		replAckTimeouts: reg.Counter("tabled_repl_ack_timeouts_total"),

		replEpochG:        reg.Gauge("tabled_repl_epoch"),
		replFencedG:       reg.Gauge("tabled_repl_fenced"),
		replReseedsOK:     reg.Counter("tabled_repl_reseeds_total", obs.L("result", "ok")),
		replReseedsErr:    reg.Counter("tabled_repl_reseeds_total", obs.L("result", "error")),
		replReseedBytes:   reg.Counter("tabled_repl_reseed_bytes_total"),
		replReseedDur:     reg.Histogram("tabled_repl_reseed_duration_seconds", obs.DefDurationBuckets),
		replLastReseedG:   reg.Gauge("tabled_repl_last_reseed_timestamp_seconds"),
		replSnapServes:    reg.Counter("tabled_repl_snapshot_serves_total", obs.L("result", "ok")),
		replSnapServeErrs: reg.Counter("tabled_repl_snapshot_serves_total", obs.L("result", "error")),
		replSnapBytes:     reg.Counter("tabled_repl_snapshot_served_bytes_total"),
	}
	for _, result := range []string{"ok", "diverged", "error"} {
		m.replPulls[result] = reg.Counter("tabled_repl_pulls_total", obs.L("result", result))
	}
	for _, op := range opNames {
		m.opsTotal[op] = reg.Counter("tabled_ops_total", obs.L("op", op))
		m.opErrors[op] = reg.Counter("tabled_op_errors_total", obs.L("op", op))
		m.batchDur[op] = reg.Histogram("tabled_batch_duration_seconds", obs.DefDurationBuckets, obs.L("op", op))
	}
	m.shardOpsC = make([]*obs.Counter, nshards)
	for i := range m.shardOpsC {
		m.shardOpsC[i] = reg.Counter("tabled_shard_ops_total", obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// shardOp records one cell op routed to shard i.
func (m *Metrics) shardOp(i int) { m.shardOps(i, 1) }

// shardOps records n cell ops routed to shard i.
func (m *Metrics) shardOps(i, n int) {
	if m == nil || i >= len(m.shardOpsC) {
		return
	}
	m.shardOpsC[i].Add(int64(n))
}

// op records one executed batch-API op group of the given kind and cell
// count, with its latency and error outcome.
func (m *Metrics) op(kind string, cells int, d time.Duration, failed bool) {
	if m == nil {
		return
	}
	m.opsTotal[kind].Inc()
	if failed {
		m.opErrors[kind].Inc()
	}
	if kind == "get" || kind == "set" {
		m.batchSize.Observe(float64(cells))
	}
	m.batchDur[kind].Observe(d.Seconds())
}

// walAppend records one appended record of n framed bytes.
func (m *Metrics) walAppend(n int64) {
	if m == nil {
		return
	}
	m.walAppends.Inc()
	m.walBytes.Add(n)
}

// walSync records one fsync attempt.
func (m *Metrics) walSync(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.walSyncErr.Inc()
	} else {
		m.walSyncOK.Inc()
	}
	m.walSyncDurH.Observe(d.Seconds())
}

// walSize mirrors the current log length.
func (m *Metrics) walSize(n int64) {
	if m == nil {
		return
	}
	m.walSizeG.Set(n)
}

// walReplay records a boot-time replay outcome.
func (m *Metrics) walReplay(records int, torn bool) {
	if m == nil {
		return
	}
	m.walReplayed.Add(int64(records))
	if torn {
		m.walTornTails.Inc()
	}
}

// walCheckpoint records one log reset.
func (m *Metrics) walCheckpoint() {
	if m == nil {
		return
	}
	m.walCheckpoints.Inc()
}

// degradedGauge exposes the tabled_degraded gauge for the srvkit trip
// machine to flip (nil on a nil bundle — obs gauges are nil-safe).
func (m *Metrics) degradedGauge() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.degradedG
}

// idempotentReplay records one batch served from the idempotency cache.
func (m *Metrics) idempotentReplay() {
	if m == nil {
		return
	}
	m.idemHits.Inc()
}

// connExchange records one exchange served on an upgraded connection.
func (m *Metrics) connExchange() {
	if m == nil {
		return
	}
	m.connExchanges.Inc()
}

// connOpen moves the open upgraded-connection gauge by d.
func (m *Metrics) connOpen(d int64) {
	if m == nil {
		return
	}
	m.connsOpenG.Add(d)
}

// replServe records the frames of one pull reply sent to a follower.
func (m *Metrics) replServe(bytes, records int) {
	if m == nil {
		return
	}
	m.replServedBytes.Add(int64(bytes))
	m.replServedRecs.Add(int64(records))
}

// replPull records one answered pull exchange by its status.
func (m *Metrics) replPull(status int) {
	if m == nil {
		return
	}
	switch {
	case status == 200:
		m.replPulls["ok"].Inc()
	case status == 409 || status == 410:
		m.replPulls["diverged"].Inc()
	default:
		m.replPulls["error"].Inc()
	}
}

// replApplied records n newly applied records and the current lag.
func (m *Metrics) replApplied(n int, lag uint64) {
	if m == nil {
		return
	}
	m.replAppliedRecs.Add(int64(n))
	m.replLagG.Set(int64(lag))
}

// replPromotion records one follower→primary transition.
func (m *Metrics) replPromotion(d time.Duration) {
	if m == nil {
		return
	}
	m.replPromotions.Inc()
	m.replPromoteDur.Observe(d.Seconds())
}

// replAckWait records one gated write batch and whether its ack timed out.
func (m *Metrics) replAckWait(timedOut bool) {
	if m == nil {
		return
	}
	m.replAckWaits.Inc()
	if timedOut {
		m.replAckTimeouts.Inc()
	}
}

// replEpoch mirrors the node's current primary epoch.
func (m *Metrics) replEpoch(e uint64) {
	if m == nil {
		return
	}
	m.replEpochG.Set(int64(e))
}

// replFenced flips the fenced gauge once a newer epoch is observed.
func (m *Metrics) replFenced() {
	if m == nil {
		return
	}
	m.replFencedG.Set(1)
}

// replReseed records one successful snapshot-transfer reseed.
func (m *Metrics) replReseed(bytes int64, d time.Duration) {
	if m == nil {
		return
	}
	m.replReseedsOK.Inc()
	m.replReseedBytes.Add(bytes)
	m.replReseedDur.Observe(d.Seconds())
	m.replLastReseedG.Set(time.Now().Unix())
}

// replReseedFailure records one failed (and to-be-retried) reseed attempt
// along with any bytes it fetched before failing.
func (m *Metrics) replReseedFailure(bytes int64) {
	if m == nil {
		return
	}
	m.replReseedsErr.Inc()
	m.replReseedBytes.Add(bytes)
}

// replSnapServe records one snapshot stream sent to a reseeding follower.
func (m *Metrics) replSnapServe(bytes int64, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.replSnapServeErrs.Inc()
	} else {
		m.replSnapServes.Inc()
	}
	m.replSnapBytes.Add(bytes)
}

// snapshot records a snapshot attempt.
func (m *Metrics) snapshot(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.snapErr.Inc()
	} else {
		m.snapOK.Inc()
	}
	m.snapDur.Observe(d.Seconds())
}
