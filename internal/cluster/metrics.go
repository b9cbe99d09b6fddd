package cluster

import (
	"time"

	"pairfn/internal/obs"
)

// Metrics is the router instrumentation bundle, registered under
// cluster_*. A nil *Metrics records nothing, so every component takes one
// unconditionally.
type Metrics struct {
	nodeOps    []*obs.Counter
	nodeErrs   []*obs.Counter
	nodeDur    []*obs.Histogram
	nodeUpG    []*obs.Gauge
	nodeDegG   []*obs.Gauge
	repUpG     []*obs.Gauge
	repPromG   []*obs.Gauge
	nodeEpochG []*obs.Gauge
	nodeFenceG []*obs.Gauge
	repEpochG  []*obs.Gauge
	repLagG    []*obs.Gauge
	failovers  *obs.Counter
	fenced     *obs.Counter
	repReads   *obs.Counter
	repBehind  *obs.Counter
	sweeps     *obs.Counter
	limited    *obs.Counter
	unroutable *obs.Counter
}

// NewMetrics registers the cluster metric families on reg (nil reg → nil
// Metrics) for the spec's members.
func NewMetrics(reg *obs.Registry, spec *Spec) *Metrics {
	if reg == nil {
		return nil
	}
	reg.Help("cluster_node_ops_total", "Batch ops routed to each member node.")
	reg.Help("cluster_node_errors_total", "Sub-batch requests to each member that failed (transport or non-200, after retries).")
	reg.Help("cluster_node_batch_duration_seconds", "Sub-batch round-trip latency, by member.")
	reg.Help("cluster_node_up", "1 while the member's last health probe was 200-ready.")
	reg.Help("cluster_node_degraded", "1 while the member's last health probe reported read-only degradation.")
	reg.Help("cluster_replica_up", "1 while the member's replica answers probes (ready or read-only degraded).")
	reg.Help("cluster_replica_promoted", "1 while the member's replica reports role primary on /v1/repl/status.")
	reg.Help("cluster_failover_batches_total", "Sub-batches routed to a member's replica because the primary was degraded or down.")
	reg.Help("cluster_node_epoch", "The member primary's last observed replication epoch (replicated nodes only).")
	reg.Help("cluster_node_fenced", "1 while the member primary is fenced: a newer epoch was observed in its pair, so the router refuses it writes.")
	reg.Help("cluster_replica_epoch", "The member replica's last observed replication epoch.")
	reg.Help("cluster_replica_lag_records", "The member replica's last reported record lag behind its source.")
	reg.Help("cluster_fenced_batches_total", "Sub-batches (or write portions) refused because the owning primary is fenced.")
	reg.Help("cluster_replica_read_ops_total", "Read ops offloaded to a healthy member's replica (-replica-reads).")
	reg.Help("cluster_replica_read_behind_ops_total", "Read ops a replica refused because it had not applied a write this router acknowledged; the primary served them.")
	reg.Help("cluster_health_sweeps_total", "Completed health sweeps over all members.")
	reg.Help("cluster_rate_limited_total", "Requests refused by the per-client admission limiter.")
	reg.Help("cluster_unroutable_ops_total", "Ops answered locally by the router (address outside every configured range, or unknown op kind).")
	m := &Metrics{
		failovers:  reg.Counter("cluster_failover_batches_total"),
		fenced:     reg.Counter("cluster_fenced_batches_total"),
		repReads:   reg.Counter("cluster_replica_read_ops_total"),
		repBehind:  reg.Counter("cluster_replica_read_behind_ops_total"),
		sweeps:     reg.Counter("cluster_health_sweeps_total"),
		limited:    reg.Counter("cluster_rate_limited_total"),
		unroutable: reg.Counter("cluster_unroutable_ops_total"),
	}
	for _, n := range spec.Nodes {
		l := obs.L("node", n.Name)
		m.nodeOps = append(m.nodeOps, reg.Counter("cluster_node_ops_total", l))
		m.nodeErrs = append(m.nodeErrs, reg.Counter("cluster_node_errors_total", l))
		m.nodeDur = append(m.nodeDur, reg.Histogram("cluster_node_batch_duration_seconds", obs.DefDurationBuckets, l))
		up := reg.Gauge("cluster_node_up", l)
		up.Set(1) // states start optimistic-healthy
		m.nodeUpG = append(m.nodeUpG, up)
		m.nodeDegG = append(m.nodeDegG, reg.Gauge("cluster_node_degraded", l))
		m.repUpG = append(m.repUpG, reg.Gauge("cluster_replica_up", l))
		m.repPromG = append(m.repPromG, reg.Gauge("cluster_replica_promoted", l))
		m.nodeEpochG = append(m.nodeEpochG, reg.Gauge("cluster_node_epoch", l))
		m.nodeFenceG = append(m.nodeFenceG, reg.Gauge("cluster_node_fenced", l))
		m.repEpochG = append(m.repEpochG, reg.Gauge("cluster_replica_epoch", l))
		m.repLagG = append(m.repLagG, reg.Gauge("cluster_replica_lag_records", l))
	}
	return m
}

// nodeBatch records one sub-batch round trip to node n.
func (m *Metrics) nodeBatch(n, ops int, d time.Duration, failed bool) {
	if m == nil {
		return
	}
	m.nodeOps[n].Add(int64(ops))
	if failed {
		m.nodeErrs[n].Inc()
	}
	m.nodeDur[n].Observe(d.Seconds())
}

// primary publishes node n's primary observation, with its epoch and
// fencing only when the probe refreshed them.
func (m *Metrics) primary(n int, o *observation, fresh, fenced bool) {
	if m == nil {
		return
	}
	m.nodeUpG[n].Set(gaugeBit(o.state == StateHealthy))
	m.nodeDegG[n].Set(gaugeBit(o.state == StateDegraded))
	if fresh {
		m.nodeEpochG[n].Set(int64(o.epoch))
		m.nodeFenceG[n].Set(gaugeBit(fenced))
	}
}

// replica publishes node n's replica observation, with its epoch and lag
// only when the probe refreshed them.
func (m *Metrics) replica(n int, o *observation, fresh bool) {
	if m == nil {
		return
	}
	m.repUpG[n].Set(gaugeBit(o.state != StateDown))
	m.repPromG[n].Set(gaugeBit(o.promoted))
	if fresh {
		m.repEpochG[n].Set(int64(o.epoch))
		m.repLagG[n].Set(int64(o.lag))
	}
}

// gaugeBit is a 0/1 gauge value.
func gaugeBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// failover records one sub-batch routed to a replica.
func (m *Metrics) failover() {
	if m != nil {
		m.failovers.Inc()
	}
}

// fencedBatch records one sub-batch (or its write portion) refused
// because the owning primary is fenced.
func (m *Metrics) fencedBatch() {
	if m != nil {
		m.fenced.Inc()
	}
}

// replicaRead records n read ops offloaded to a healthy node's replica.
func (m *Metrics) replicaRead(n int) {
	if m != nil {
		m.repReads.Add(int64(n))
	}
}

// replicaBehind records n read ops a replica refused as behind.
func (m *Metrics) replicaBehind(n int) {
	if m != nil {
		m.repBehind.Add(int64(n))
	}
}

func (m *Metrics) healthSweep() {
	if m != nil {
		m.sweeps.Inc()
	}
}

func (m *Metrics) rateLimited() {
	if m != nil {
		m.limited.Inc()
	}
}

func (m *Metrics) unroutableOps(n int) {
	if m != nil {
		m.unroutable.Add(int64(n))
	}
}

// nodeSnapshot returns node n's cumulative op/error counts and latency
// histogram for /v1/cluster.
func (m *Metrics) nodeSnapshot(n int) (ops, errs int64, bounds []float64, counts []int64) {
	if m == nil {
		return 0, 0, nil, nil
	}
	bounds, counts = m.nodeDur[n].Snapshot()
	return m.nodeOps[n].Value(), m.nodeErrs[n].Value(), bounds, counts
}

// HistogramPercentile estimates the p-quantile (0 < p ≤ 1) of an
// obs.Histogram snapshot: bounds are bucket upper limits, counts the
// CUMULATIVE count at or below each bound with one trailing +Inf entry
// (exactly obs.Histogram.Snapshot's shape). Linear interpolation inside
// the selected bucket; observations in the +Inf bucket report the last
// finite bound (an underestimate, flagged by the caller if it matters).
// tabledload's -nodes summary runs this over snapshot DELTAS to report
// one load run's per-node percentiles.
func HistogramPercentile(bounds []float64, counts []int64, p float64) float64 {
	if len(counts) == 0 || len(bounds) != len(counts)-1 {
		return 0
	}
	total := counts[len(counts)-1]
	if total <= 0 {
		return 0
	}
	rank := p * float64(total)
	lo := 0.0
	for i, b := range bounds {
		c := float64(counts[i])
		if c >= rank {
			prev := 0.0
			if i > 0 {
				prev = float64(counts[i-1])
			}
			if c == prev {
				return b
			}
			return lo + (b-lo)*(rank-prev)/(c-prev)
		}
		lo = b
	}
	return bounds[len(bounds)-1]
}
