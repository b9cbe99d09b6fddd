package wbc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pairfn/internal/apf"
	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
	"pairfn/internal/walog"
)

// ErrBanned reports an operation by a banned volunteer.
var ErrBanned = errors.New("wbc: volunteer is banned")

// ErrDeparted reports an operation by a departed volunteer.
var ErrDeparted = errors.New("wbc: volunteer has departed")

// ErrUnknownVolunteer reports an operation by an unregistered volunteer.
var ErrUnknownVolunteer = errors.New("wbc: unknown volunteer")

// ErrNotIssuedToYou reports a submission for a task the submitter does not
// own.
var ErrNotIssuedToYou = errors.New("wbc: task not issued to this volunteer")

// ErrDegraded reports a mutation rejected because the journal can no
// longer attest durability: the coordinator is read-only. Attribution and
// metrics keep answering; mutations get this (HTTP 503) until an operator
// replaces the journal volume and restarts.
var ErrDegraded = errors.New("wbc: coordinator degraded to read-only (journal failure)")

// Config parameterizes a Coordinator.
type Config struct {
	// APF is the task-allocation function 𝒯.
	APF apf.APF
	// Workload defines task semantics; required for auditing.
	Workload Workload
	// AuditRate is the probability a submission is audited by
	// recomputation, in [0, 1].
	AuditRate float64
	// StrikeLimit bans a volunteer at this many confirmed bad results
	// (≥ 1; default 1).
	StrikeLimit int
	// Seed drives the audit sampling.
	Seed int64
	// LeaseTTL, when positive, is how long a volunteer may stay silent
	// before ExpireLeases treats it as implicitly departed and its
	// outstanding tasks are reclaimed for reissue. Any authenticated
	// activity — Register, NextTask, Submit, Heartbeat — renews the
	// lease. Zero disables leasing (volunteers live until Depart).
	LeaseTTL time.Duration
	// Now overrides the lease clock; nil uses time.Now. Test seam.
	Now func() time.Time
	// Obs, when non-nil, receives live operation counters and latency
	// histograms from the coordinator hot paths, and APF encode/decode
	// counters (the task-allocation function is wrapped with
	// apf.Instrument). Nil disables instrumentation at zero cost.
	Obs *obs.Registry
}

// Metrics is a snapshot of coordinator counters.
type Metrics struct {
	Registered       int64 // volunteers ever registered
	Active           int64 // currently active volunteers
	Issued           int64 // tasks issued (including reissues)
	Completed        int64 // submissions accepted
	Audited          int64 // submissions audited inline
	BadCaught        int64 // audited submissions found wrong
	Bans             int64 // volunteers banned
	Reissues         int64 // abandoned tasks reissued
	Footprint        int64 // largest task index issued (table size)
	LeaseExpirations int64 // volunteers expired for not heartbeating
	TasksReclaimed   int64 // outstanding tasks orphaned by lease expiry
}

type volState struct {
	id        VolunteerID
	row       int64 // current row; −1 when unbound (departed/banned)
	speed     float64
	strikes   int
	banned    bool
	departed  bool
	completed int64
	// out is the set of tasks issued to this volunteer and not yet
	// submitted.
	out map[TaskID]bool
}

// Coordinator is the WBC server: it registers volunteers, allocates tasks
// through the ledger's APF, collects results, audits a sample, bans errant
// volunteers, and reassigns the rows (and abandoned tasks) of departed,
// banned, or lease-expired volunteers — the §4 "front end". Safe for
// concurrent use by volunteer goroutines.
//
// Durability: with a Journal attached (OpenJournal), every mutation is
// applied in memory, framed into the journal under the same critical
// section (so journal order equals apply order — coordinator ops do not
// commute), and acknowledged only after the record is fsynced. The
// mutators are therefore split into applyXxxLocked cores, deterministic
// functions of coordinator state plus the record, shared verbatim by the
// live path and boot-time replay. A journal write failure degrades the
// coordinator to read-only (ErrDegraded) instead of crashing it.
type Coordinator struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	ledger  *Ledger
	nextVol VolunteerID
	nextRow int64
	// freeRows are rows vacated by departed/banned volunteers, available
	// for rebinding (smallest first, so newcomers inherit compact rows).
	freeRows []int64
	// orphans are tasks issued to a row's previous owner and never
	// submitted; the row's next owner receives them first, and active
	// volunteers steal from ownerless rows so reclaimed work never
	// starves waiting for a newcomer.
	orphans map[int64][]TaskID
	vols    map[VolunteerID]*volState
	rowVol  map[int64]VolunteerID
	results map[TaskID]int64
	// leases[id] is the deadline by which volunteer id must show
	// activity; only populated when cfg.LeaseTTL > 0.
	leases map[VolunteerID]time.Time
	// applied counts journaled mutations; checkpointed, so replay can
	// skip records the checkpoint already contains (ops are not
	// idempotent — sequence gating is what makes replay-after-a-crash-
	// during-checkpoint safe).
	applied uint64

	journal *Journal
	// deg is the sticky read-only trip machine (shared with tabled via
	// srvkit): a journal failure flips it once and it never un-trips
	// in-process.
	deg *srvkit.Degraded

	m   Metrics
	ops coordObs
}

// coordObs holds the coordinator's live instrumentation handles. All
// fields are nil when Config.Obs is nil; every obs method is a no-op on a
// nil receiver, so the hot paths record unconditionally.
type coordObs struct {
	register, depart, next, submit, auditAll *obs.Counter
	audited, caught, banned, reissued        *obs.Counter
	heartbeat, expired, reclaimed            *obs.Counter
	errs                                     *obs.Counter
	nextLat, submitLat                       *obs.Histogram
}

// newCoordObs registers the coordinator metric families in r (nil r
// yields all-nil no-op handles).
func newCoordObs(r *obs.Registry) coordObs {
	if r == nil {
		return coordObs{}
	}
	r.Help("wbc_coordinator_ops_total", "Coordinator operations, by op.")
	r.Help("wbc_coordinator_errors_total", "Coordinator operations that returned an error, by op.")
	r.Help("wbc_coordinator_op_duration_seconds", "Coordinator operation latency, by op.")
	op := func(name string) *obs.Counter {
		return r.Counter("wbc_coordinator_ops_total", obs.L("op", name))
	}
	return coordObs{
		register:  op("register"),
		depart:    op("depart"),
		next:      op("next"),
		submit:    op("submit"),
		auditAll:  op("audit_all"),
		audited:   op("audit"),
		caught:    op("caught"),
		banned:    op("ban"),
		reissued:  op("reissue"),
		heartbeat: op("heartbeat"),
		expired:   op("lease_expire"),
		reclaimed: op("reclaim"),
		errs:      r.Counter("wbc_coordinator_errors_total"),
		nextLat: r.Histogram("wbc_coordinator_op_duration_seconds",
			obs.DefDurationBuckets, obs.L("op", "next")),
		submitLat: r.Histogram("wbc_coordinator_op_duration_seconds",
			obs.DefDurationBuckets, obs.L("op", "submit")),
	}
}

// enabled reports whether instrumentation is live (used to skip
// time.Now() on the uninstrumented fast path).
func (o *coordObs) enabled() bool { return o.next != nil }

// NewCoordinator returns a Coordinator for the given configuration.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.APF == nil {
		return nil, fmt.Errorf("wbc: Config.APF is required")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("wbc: Config.Workload is required")
	}
	if cfg.AuditRate < 0 || cfg.AuditRate > 1 {
		return nil, fmt.Errorf("wbc: AuditRate %v outside [0, 1]", cfg.AuditRate)
	}
	if cfg.StrikeLimit < 1 {
		cfg.StrikeLimit = 1
	}
	// With observability on, every 𝒯/𝒯⁻¹ evaluation the ledger performs is
	// counted; Instrument is the identity when cfg.Obs is nil.
	return &Coordinator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		deg:     srvkit.NewDegraded(srvkit.DegradedConfig{Detail: "read-only (journal failure)"}),
		ledger:  NewLedger(apf.Instrument(cfg.APF, cfg.Obs)),
		ops:     newCoordObs(cfg.Obs),
		nextVol: 1,
		nextRow: 1,
		orphans: make(map[int64][]TaskID),
		vols:    make(map[VolunteerID]*volState),
		rowVol:  make(map[int64]VolunteerID),
		results: make(map[TaskID]int64),
		leases:  make(map[VolunteerID]time.Time),
	}, nil
}

// now is the lease clock.
func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// renewLeaseLocked pushes id's activity deadline out by LeaseTTL.
func (c *Coordinator) renewLeaseLocked(id VolunteerID) {
	if c.cfg.LeaseTTL > 0 {
		c.leases[id] = c.now().Add(c.cfg.LeaseTTL)
	}
}

// checkWritableLocked gates every mutation on the durability state.
func (c *Coordinator) checkWritableLocked() error {
	if c.deg.Is() {
		return ErrDegraded
	}
	return nil
}

// logLocked assigns the mutation its sequence number and, when a journal
// is attached, frames the record into it — under c.mu, so the journal's
// record order is exactly the apply order. Durability is awaited after
// c.mu is released (waitDurable); Enqueue itself never syncs, so holding
// the lock across it costs one buffered write.
func (c *Coordinator) logLocked(rec journalRec) walog.Ticket {
	c.applied++
	if c.journal == nil {
		return walog.Ticket{}
	}
	rec.Seq = c.applied
	return c.journal.log.Enqueue(encodeJournalRec(rec))
}

// waitDurable blocks until the mutation's journal record is fsynced, or
// until ctx ends or the deadline (zero: none) passes while the wait is
// parked behind another mutation's fsync; then it returns ctx's error or
// context.DeadlineExceeded, and the record still becomes durable with
// that fsync. A journal failure flips the coordinator into read-only
// degraded mode (once), fires the AttachJournal callback, and surfaces
// ErrDegraded. Either way the mutation is applied in memory but was never
// acknowledged, matching the crash contract (an unacknowledged write may
// be lost on restart).
func (c *Coordinator) waitDurable(ctx context.Context, deadline time.Time, t walog.Ticket) error {
	err := t.Wait(ctx, deadline)
	if err == nil || waitEnded(err) {
		return err
	}
	c.deg.Degrade(err)
	return fmt.Errorf("%w: %v", ErrDegraded, err)
}

// waitEnded reports whether err is a wait's end by its context or its
// deadline rather than a journal failure.
func waitEnded(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// durable completes an exported mutation: the error of its apply step,
// or else that of its journal wait, which has no deadline. The HTTP
// handlers call the apply steps themselves and wait by their deadline.
func (c *Coordinator) durable(t walog.Ticket, err error) error {
	if err != nil {
		return err
	}
	return c.waitDurable(context.Background(), time.Time{}, t)
}

// AttachJournal wires a journal (normally done by OpenJournal) and the
// callback fired exactly once if the journal fails. The callback runs
// outside the coordinator lock.
func (c *Coordinator) AttachJournal(j *Journal, onDegrade func(error)) {
	c.mu.Lock()
	c.journal = j
	c.mu.Unlock()
	c.deg.OnDegrade(onDegrade)
}

// Degraded reports whether a journal failure has made the coordinator
// read-only.
func (c *Coordinator) Degraded() bool { return c.deg.Is() }

// ActiveLeases returns the number of volunteers holding a live lease.
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// Register adds a volunteer and binds it to a row: the smallest vacated row
// if any (inheriting its orphaned tasks), else the next fresh row. The
// speed hint participates in Rebalance's faster-volunteers-get-smaller-rows
// ordering. The error is non-nil only on a degraded (read-only)
// coordinator.
func (c *Coordinator) Register(speed float64) (VolunteerID, error) {
	id, t, err := c.register(speed)
	return id, c.durable(t, err)
}

// register is Register up to its journal wait: it applies the mutation
// and returns the ticket of its journal record.
func (c *Coordinator) register(speed float64) (VolunteerID, walog.Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkWritableLocked(); err != nil {
		c.ops.errs.Inc()
		return 0, walog.Ticket{}, err
	}
	id, row := c.applyRegisterLocked(speed)
	t := c.logLocked(journalRec{Kind: jRegister, ID: id, Speed: speed, Row: row})
	c.ops.register.Inc()
	return id, t, nil
}

// MustRegister is Register for journal-less coordinators (simulations,
// tests), where registration cannot fail.
func (c *Coordinator) MustRegister(speed float64) VolunteerID {
	id, err := c.Register(speed)
	if err != nil {
		panic(err)
	}
	return id
}

// applyRegisterLocked is the deterministic core of Register, shared by
// the live path and journal replay.
func (c *Coordinator) applyRegisterLocked(speed float64) (VolunteerID, int64) {
	id := c.nextVol
	c.nextVol++
	var row int64
	if len(c.freeRows) > 0 {
		sort.Slice(c.freeRows, func(i, j int) bool { return c.freeRows[i] < c.freeRows[j] })
		row = c.freeRows[0]
		c.freeRows = c.freeRows[1:]
	} else {
		row = c.nextRow
		c.nextRow++
	}
	v := &volState{id: id, row: row, speed: speed, out: make(map[TaskID]bool)}
	c.vols[id] = v
	c.rowVol[row] = id
	c.ledger.Bind(row, id)
	c.m.Registered++
	c.m.Active++
	c.renewLeaseLocked(id)
	return id, row
}

// Depart removes a volunteer; its row and outstanding tasks become
// available to the next arrival.
func (c *Coordinator) Depart(id VolunteerID) error {
	return c.durable(c.depart(id))
}

// depart is Depart up to its journal wait.
func (c *Coordinator) depart(id VolunteerID) (walog.Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkWritableLocked(); err != nil {
		c.ops.errs.Inc()
		return walog.Ticket{}, err
	}
	v, ok := c.vols[id]
	if !ok {
		c.ops.errs.Inc()
		return walog.Ticket{}, fmt.Errorf("%w: %d", ErrUnknownVolunteer, id)
	}
	if v.departed {
		c.ops.errs.Inc()
		return walog.Ticket{}, fmt.Errorf("%w: %d", ErrDeparted, id)
	}
	c.applyDepartLocked(v)
	t := c.logLocked(journalRec{Kind: jDepart, ID: id})
	c.ops.depart.Inc()
	return t, nil
}

// applyDepartLocked is the deterministic core of Depart.
func (c *Coordinator) applyDepartLocked(v *volState) {
	v.departed = true
	c.m.Active--
	c.vacateLocked(v)
}

// vacateLocked unbinds v from its row, parking outstanding tasks as
// orphans (in ascending task order, so replay parks them identically) and
// dropping its lease.
func (c *Coordinator) vacateLocked(v *volState) {
	delete(c.leases, v.id)
	if v.row < 0 {
		return
	}
	row := v.row
	v.row = -1
	delete(c.rowVol, row)
	c.freeRows = append(c.freeRows, row)
	if len(v.out) > 0 {
		ks := make([]TaskID, 0, len(v.out))
		for k := range v.out {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		c.orphans[row] = append(c.orphans[row], ks...)
	}
	v.out = make(map[TaskID]bool)
}

// NextTask issues the next task for volunteer id: an orphaned task of its
// row if one is pending, else an orphan stolen from the smallest ownerless
// row (reclaimed work from expired volunteers must not starve waiting for
// a newcomer to inherit the row), else the fresh index 𝒯(row, seq).
func (c *Coordinator) NextTask(id VolunteerID) (TaskID, error) {
	k, t, err := c.nextTask(id)
	return k, c.durable(t, err)
}

// nextTask is NextTask up to its journal wait.
func (c *Coordinator) nextTask(id VolunteerID) (TaskID, walog.Ticket, error) {
	var start time.Time
	if c.ops.enabled() {
		start = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkWritableLocked(); err != nil {
		c.ops.errs.Inc()
		return 0, walog.Ticket{}, err
	}
	v, err := c.activeLocked(id)
	if err != nil {
		c.ops.errs.Inc()
		return 0, walog.Ticket{}, err
	}
	k, reissued, err := c.applyNextLocked(v)
	if err != nil {
		c.ops.errs.Inc()
		return 0, walog.Ticket{}, err
	}
	t := c.logLocked(journalRec{Kind: jNext, ID: id, Task: k})
	c.ops.next.Inc()
	if reissued {
		c.ops.reissued.Inc()
	}
	if c.ops.enabled() {
		c.ops.nextLat.Observe(time.Since(start).Seconds())
	}
	return k, t, nil
}

// applyNextLocked is the deterministic core of NextTask. An error means
// no state was mutated (Ledger.Issue mutates only on success).
func (c *Coordinator) applyNextLocked(v *volState) (TaskID, bool, error) {
	if k, ok := c.takeOrphanLocked(v.row); ok {
		c.issueReissueLocked(v, k)
		return k, true, nil
	}
	if row, ok := c.unownedOrphanRowLocked(); ok {
		k, _ := c.takeOrphanLocked(row)
		c.issueReissueLocked(v, k)
		return k, true, nil
	}
	k, err := c.ledger.Issue(v.row)
	if err != nil {
		return 0, false, err
	}
	v.out[k] = true
	c.m.Issued++
	if int64(c.ledger.Footprint()) > c.m.Footprint {
		c.m.Footprint = int64(c.ledger.Footprint())
	}
	c.renewLeaseLocked(v.id)
	return k, false, nil
}

// takeOrphanLocked pops the head of row's orphan queue, deleting the
// queue when it empties (so ownerless-row scans and state snapshots never
// see ghost entries).
func (c *Coordinator) takeOrphanLocked(row int64) (TaskID, bool) {
	q := c.orphans[row]
	if len(q) == 0 {
		return 0, false
	}
	k := q[0]
	if len(q) == 1 {
		delete(c.orphans, row)
	} else {
		c.orphans[row] = q[1:]
	}
	return k, true
}

// unownedOrphanRowLocked returns the smallest row holding orphans but no
// current owner — the deterministic steal order.
func (c *Coordinator) unownedOrphanRowLocked() (int64, bool) {
	var best int64
	found := false
	for row, q := range c.orphans {
		if len(q) == 0 {
			continue
		}
		if _, owned := c.rowVol[row]; owned {
			continue
		}
		if !found || row < best {
			best, found = row, true
		}
	}
	return best, found
}

// issueReissueLocked hands orphan k to v with an attribution override.
func (c *Coordinator) issueReissueLocked(v *volState, k TaskID) {
	c.ledger.Override(k, v.id)
	v.out[k] = true
	c.m.Issued++
	c.m.Reissues++
	c.renewLeaseLocked(v.id)
}

func (c *Coordinator) activeLocked(id VolunteerID) (*volState, error) {
	v, ok := c.vols[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %d", ErrUnknownVolunteer, id)
	case v.banned:
		return nil, fmt.Errorf("%w: %d", ErrBanned, id)
	case v.departed:
		return nil, fmt.Errorf("%w: %d", ErrDeparted, id)
	}
	return v, nil
}

// auditDecision carries Submit's audit sampling outcome. On the live path
// the RNG is drawn and the fields are filled in for journaling; on replay
// the recorded fields are used verbatim, so recovery never redraws the
// RNG or recomputes the workload and converges to the exact live state.
type auditDecision struct {
	replay  bool
	audited bool
	caught  bool
}

// Submit records volunteer id's result for task k. With probability
// AuditRate the result is audited by recomputation; a confirmed bad result
// is a strike, and StrikeLimit strikes ban the volunteer (its row and
// outstanding tasks are recycled). Submit reports whether the submission
// was audited and found bad.
func (c *Coordinator) Submit(id VolunteerID, k TaskID, result int64) (caught bool, err error) {
	caught, t, err := c.submit(id, k, result)
	return caught, c.durable(t, err)
}

// submit is Submit up to its journal wait.
func (c *Coordinator) submit(id VolunteerID, k TaskID, result int64) (bool, walog.Ticket, error) {
	var start time.Time
	if c.ops.enabled() {
		start = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkWritableLocked(); err != nil {
		c.ops.errs.Inc()
		return false, walog.Ticket{}, err
	}
	v, err := c.activeLocked(id)
	if err != nil {
		c.ops.errs.Inc()
		return false, walog.Ticket{}, err
	}
	if !v.out[k] {
		c.ops.errs.Inc()
		return false, walog.Ticket{}, fmt.Errorf("%w: volunteer %d, task %d", ErrNotIssuedToYou, id, k)
	}
	var d auditDecision
	caught := c.applySubmitLocked(v, k, result, &d)
	t := c.logLocked(journalRec{
		Kind: jSubmit, ID: id, Task: k, Result: result,
		Audited: d.audited, Caught: d.caught,
	})
	c.ops.submit.Inc()
	if d.audited {
		c.ops.audited.Inc()
	}
	if d.caught {
		c.ops.caught.Inc()
	}
	if v.banned {
		c.ops.banned.Inc()
	}
	if c.ops.enabled() {
		c.ops.submitLat.Observe(time.Since(start).Seconds())
	}
	return caught, t, nil
}

// applySubmitLocked is the deterministic core of Submit: given the audit
// decision (drawn live, recorded on replay) the strike/ban consequences
// are a pure function of coordinator state.
func (c *Coordinator) applySubmitLocked(v *volState, k TaskID, result int64, d *auditDecision) (caught bool) {
	delete(v.out, k)
	c.results[k] = result
	v.completed++
	c.m.Completed++
	c.renewLeaseLocked(v.id)
	if !d.replay {
		// The draw happens exactly here so journal-less coordinators keep
		// the historical RNG stream (seeded sims and tests pin it).
		d.audited = c.rng.Float64() < c.cfg.AuditRate
		if d.audited {
			d.caught = c.cfg.Workload.Do(k) != result
		}
	}
	if d.audited {
		c.m.Audited++
		if d.caught {
			c.m.BadCaught++
			v.strikes++
			caught = true
			if v.strikes >= c.cfg.StrikeLimit {
				v.banned = true
				c.m.Bans++
				c.m.Active--
				c.vacateLocked(v)
			}
		}
	}
	return caught
}

// Heartbeat renews volunteer id's lease without any other effect. It is
// not journaled (lease deadlines are soft state, re-granted on restore)
// and is allowed on a degraded coordinator, so volunteers survive a
// read-only window without being expired.
func (c *Coordinator) Heartbeat(id VolunteerID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.activeLocked(id); err != nil {
		c.ops.errs.Inc()
		return err
	}
	c.renewLeaseLocked(id)
	c.ops.heartbeat.Inc()
	return nil
}

// ExpireLeases scans for volunteers whose lease deadline has passed and
// applies an implicit, journaled Depart to each: the row is vacated, its
// outstanding tasks orphaned for reissue, and attribution history kept
// intact. Returns the number of volunteers expired. A no-op when leasing
// is disabled.
func (c *Coordinator) ExpireLeases() (int, error) {
	c.mu.Lock()
	if c.cfg.LeaseTTL <= 0 {
		c.mu.Unlock()
		return 0, nil
	}
	if err := c.checkWritableLocked(); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	now := c.now()
	var expired []VolunteerID
	for id, deadline := range c.leases {
		if !now.Before(deadline) {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	var tickets []walog.Ticket
	for _, id := range expired {
		v, ok := c.vols[id]
		if !ok || v.departed || v.banned {
			delete(c.leases, id) // stale entry; vacate already dropped state
			continue
		}
		reclaimed := len(v.out)
		c.applyExpireLocked(v)
		tickets = append(tickets, c.logLocked(journalRec{Kind: jExpire, ID: id}))
		c.ops.expired.Inc()
		c.ops.reclaimed.Add(int64(reclaimed))
	}
	c.mu.Unlock()
	for _, t := range tickets {
		if err := c.durable(t, nil); err != nil {
			return len(tickets), err
		}
	}
	return len(tickets), nil
}

// applyExpireLocked is the deterministic core of a lease expiry: an
// implicit Depart plus reclamation accounting.
func (c *Coordinator) applyExpireLocked(v *volState) {
	v.departed = true
	c.m.Active--
	c.m.LeaseExpirations++
	c.m.TasksReclaimed += int64(len(v.out))
	c.vacateLocked(v)
}

// RunLeaseSweeper expires overdue leases every interval until ctx is
// done. Run it in its own goroutine; a degraded coordinator makes the
// sweep a no-op (expiry is a journaled mutation) without stopping the
// loop, so recovery semantics stay uniform.
func (c *Coordinator) RunLeaseSweeper(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = c.ExpireLeases()
		}
	}
}

// Attribute returns the volunteer accountable for task k — the scheme's
// raison d'être: 𝒯⁻¹ plus the binding history answer instantly, with no
// per-task bookkeeping.
func (c *Coordinator) Attribute(k TaskID) (VolunteerID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, _, _, err := c.ledger.Attribute(k)
	return v, err
}

// AuditAll recomputes every accepted result and returns, per accountable
// volunteer, the list of task indices it answered incorrectly. This is the
// end-of-run accounting a project head would use to assess volunteers.
func (c *Coordinator) AuditAll() (map[VolunteerID][]TaskID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops.auditAll.Inc()
	bad := make(map[VolunteerID][]TaskID)
	for k, res := range c.results {
		if c.cfg.Workload.Do(k) == res {
			continue
		}
		v, _, _, err := c.ledger.Attribute(k)
		if err != nil {
			return nil, err
		}
		bad[v] = append(bad[v], k)
	}
	for _, ks := range bad {
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	}
	return bad, nil
}

// Rebalance rebinds rows so that faster volunteers (higher measured
// throughput, falling back to the registration speed hint) occupy smaller
// row indices — the ordering §4's front end maintains, which keeps the
// heaviest progressions on the smallest strides. Outstanding tasks follow
// their owners via attribution overrides; past tasks keep their historical
// attribution through the binding records. The error is non-nil only on a
// degraded coordinator.
func (c *Coordinator) Rebalance() error {
	c.mu.Lock()
	if err := c.checkWritableLocked(); err != nil {
		c.mu.Unlock()
		c.ops.errs.Inc()
		return err
	}
	var t walog.Ticket
	if c.applyRebalanceLocked() {
		t = c.logLocked(journalRec{Kind: jRebalance})
	}
	c.mu.Unlock()
	return c.durable(t, nil)
}

// applyRebalanceLocked is the deterministic core of Rebalance (map
// iteration feeds a total-order sort, so the outcome is a pure function
// of state). It reports whether any row assignment changed — a no-op
// rebalance is not journaled.
func (c *Coordinator) applyRebalanceLocked() bool {
	type slot struct {
		v   *volState
		row int64
	}
	var active []slot
	for _, v := range c.vols {
		if v.row >= 0 && !v.banned && !v.departed {
			active = append(active, slot{v: v, row: v.row})
		}
	}
	if len(active) < 2 {
		return false
	}
	rows := make([]int64, len(active))
	for i, s := range active {
		rows[i] = s.row
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	sort.Slice(active, func(i, j int) bool {
		a, b := active[i].v, active[j].v
		if a.completed != b.completed {
			return a.completed > b.completed
		}
		if a.speed != b.speed {
			return a.speed > b.speed
		}
		return a.id < b.id
	})
	changed := false
	for i, s := range active {
		row := rows[i]
		if s.v.row == row {
			continue
		}
		s.v.row = row
		changed = true
	}
	if !changed {
		return false
	}
	// Rewrite bindings and ownership after all moves are decided.
	for i, s := range active {
		row := rows[i]
		if cur, ok := c.rowVol[row]; !ok || cur != s.v.id {
			c.rowVol[row] = s.v.id
			c.ledger.Bind(row, s.v.id)
		}
		// In-flight tasks keep correct attribution through the seq-range
		// bindings; nothing to move. Orphans of the row now belong to its
		// new owner by construction.
	}
	return true
}

// Row returns the current row of volunteer id (−1 if unbound).
func (c *Coordinator) Row(id VolunteerID) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vols[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownVolunteer, id)
	}
	return v.row, nil
}

// Banned reports whether volunteer id is banned.
func (c *Coordinator) Banned(id VolunteerID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vols[id]
	return ok && v.banned
}

// VolunteerReport is a per-volunteer accounting row.
type VolunteerReport struct {
	ID          VolunteerID
	Row         int64 // current row (−1 if departed/banned)
	Completed   int64
	Strikes     int
	Banned      bool
	Departed    bool
	Outstanding int // tasks fetched but not submitted
}

// Report returns per-volunteer accounting in ID order — the project
// head's roster view.
func (c *Coordinator) Report() []VolunteerReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]VolunteerReport, 0, len(c.vols))
	for _, v := range c.vols {
		out = append(out, VolunteerReport{
			ID: v.id, Row: v.row, Completed: v.completed, Strikes: v.strikes,
			Banned: v.banned, Departed: v.departed, Outstanding: len(v.out),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Metrics returns a snapshot of the counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Ledger exposes the accountability ledger (read-mostly; callers must not
// mutate it concurrently with coordinator use).
func (c *Coordinator) Ledger() *Ledger { return c.ledger }

// Results returns a copy of the accepted results table.
func (c *Coordinator) Results() map[TaskID]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[TaskID]int64, len(c.results))
	for k, v := range c.results {
		out[k] = v
	}
	return out
}
