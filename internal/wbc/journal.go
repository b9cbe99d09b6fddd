package wbc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/walog"
)

// The coordinator journal is the WBC half of the repo's durability story:
// §4's accountability claim is vacuous if a crash forgets who was bound to
// which row, so every acknowledged mutation — Register, Depart, NextTask,
// Submit, Rebalance, lease expiry — is framed into a walog.Log before the
// HTTP ack. Boot recovery loads the newest checkpoint and replays the
// journal tail through the same applyXxxLocked cores the live path uses.
//
// Coordinator ops are not idempotent (Register order determines IDs,
// NextTask order determines sequence numbers), so two mechanisms make
// replay exact:
//
//   - Records are enqueued under c.mu (logLocked), so journal order equals
//     apply order, and each record carries the mutation counter c.applied.
//     Replay skips records at or below the checkpoint's counter — the
//     crash-between-save-and-truncate window — and rejects gaps as
//     divergence instead of guessing.
//   - Submit's audit sampling (an RNG draw plus a workload recomputation)
//     is recorded in the jSubmit record, so replay applies the recorded
//     verdict rather than redrawing.
//
// Replay additionally verifies every derivable output (assigned volunteer
// ID, bound row, issued task index) against the record; a mismatch means
// the checkpoint and journal disagree (wrong file pairing, APF change) and
// recovery fails loudly rather than resurrecting a corrupted ledger.

// Journal record kinds.
const (
	jRegister  = byte(1)
	jDepart    = byte(2)
	jNext      = byte(3)
	jSubmit    = byte(4)
	jRebalance = byte(5)
	jExpire    = byte(6) // lease expiry: an implicit, journaled Depart
)

// journalRec is one coordinator mutation, in wire order.
type journalRec struct {
	Seq     uint64 // mutation counter after this record's apply
	Kind    byte
	ID      VolunteerID
	Speed   float64 // jRegister
	Row     int64   // jRegister: the row the apply must assign
	Task    TaskID  // jNext (verification), jSubmit
	Result  int64   // jSubmit
	Audited bool    // jSubmit: recorded audit draw
	Caught  bool    // jSubmit: recorded audit verdict
}

// encodeJournalRec serializes a record: kind, uvarint seq, varint id,
// then kind-specific fields (speed as 8 fixed bytes — varints mangle
// float bit patterns).
func encodeJournalRec(rec journalRec) []byte {
	buf := make([]byte, 0, 1+4*binary.MaxVarintLen64+9)
	buf = append(buf, rec.Kind)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendVarint(buf, int64(rec.ID))
	switch rec.Kind {
	case jRegister:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rec.Speed))
		buf = binary.AppendVarint(buf, rec.Row)
	case jNext:
		buf = binary.AppendVarint(buf, int64(rec.Task))
	case jSubmit:
		buf = binary.AppendVarint(buf, int64(rec.Task))
		buf = binary.AppendVarint(buf, rec.Result)
		var flags byte
		if rec.Audited {
			flags |= 1
		}
		if rec.Caught {
			flags |= 2
		}
		buf = append(buf, flags)
	}
	return buf
}

// decodeJournalRec parses one frame payload. Frames are CRC-protected, so
// a failure here means a version mismatch or encoder bug, not bit rot —
// it aborts replay rather than being skipped.
func decodeJournalRec(payload []byte) (journalRec, error) {
	if len(payload) == 0 {
		return journalRec{}, errors.New("empty journal record")
	}
	rec := journalRec{Kind: payload[0]}
	rest := payload[1:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return journalRec{}, errors.New("journal record: bad seq")
	}
	rec.Seq = seq
	rest = rest[n:]
	id, n := binary.Varint(rest)
	if n <= 0 {
		return journalRec{}, errors.New("journal record: bad volunteer id")
	}
	rec.ID = VolunteerID(id)
	rest = rest[n:]
	switch rec.Kind {
	case jRegister:
		if len(rest) < 8 {
			return journalRec{}, errors.New("journal register record: truncated speed")
		}
		rec.Speed = math.Float64frombits(binary.BigEndian.Uint64(rest))
		rest = rest[8:]
		row, n := binary.Varint(rest)
		if n <= 0 {
			return journalRec{}, errors.New("journal register record: bad row")
		}
		rec.Row = row
		rest = rest[n:]
	case jDepart, jRebalance, jExpire:
		// No extra fields.
	case jNext:
		k, n := binary.Varint(rest)
		if n <= 0 {
			return journalRec{}, errors.New("journal next record: bad task")
		}
		rec.Task = TaskID(k)
		rest = rest[n:]
	case jSubmit:
		k, n := binary.Varint(rest)
		if n <= 0 {
			return journalRec{}, errors.New("journal submit record: bad task")
		}
		rec.Task = TaskID(k)
		rest = rest[n:]
		res, n := binary.Varint(rest)
		if n <= 0 {
			return journalRec{}, errors.New("journal submit record: bad result")
		}
		rec.Result = res
		rest = rest[n:]
		if len(rest) < 1 {
			return journalRec{}, errors.New("journal submit record: missing flags")
		}
		rec.Audited = rest[0]&1 != 0
		rec.Caught = rest[0]&2 != 0
		rest = rest[1:]
	default:
		return journalRec{}, fmt.Errorf("unknown journal record kind %d", rec.Kind)
	}
	if len(rest) != 0 {
		return journalRec{}, fmt.Errorf("journal record kind %d: trailing bytes", rec.Kind)
	}
	return rec, nil
}

// applyJournalRecord replays one record during OpenJournal (under c.mu).
// Sequence gating makes the replay idempotent against a checkpoint that
// was saved after some of these records were logged; every derivable
// output is checked against the record so a checkpoint/journal mismatch
// fails recovery instead of corrupting attribution.
func (c *Coordinator) applyJournalRecord(rec journalRec) error {
	if rec.Seq <= c.applied {
		return nil // already contained in the checkpoint
	}
	if rec.Seq != c.applied+1 {
		return fmt.Errorf("wbc: journal divergence: record seq %d after applied %d",
			rec.Seq, c.applied)
	}
	switch rec.Kind {
	case jRegister:
		id, row := c.applyRegisterLocked(rec.Speed)
		if id != rec.ID || row != rec.Row {
			return fmt.Errorf("wbc: journal divergence: replayed register assigned (vol %d, row %d), journal recorded (vol %d, row %d)",
				id, row, rec.ID, rec.Row)
		}
	case jDepart:
		v, ok := c.vols[rec.ID]
		if !ok || v.departed {
			return fmt.Errorf("wbc: journal divergence: depart of unknown/departed volunteer %d", rec.ID)
		}
		c.applyDepartLocked(v)
	case jNext:
		v, err := c.activeLocked(rec.ID)
		if err != nil {
			return fmt.Errorf("wbc: journal divergence: next: %w", err)
		}
		k, _, err := c.applyNextLocked(v)
		if err != nil {
			return fmt.Errorf("wbc: journal divergence: next: %w", err)
		}
		if k != rec.Task {
			return fmt.Errorf("wbc: journal divergence: replayed next issued task %d, journal recorded %d", k, rec.Task)
		}
	case jSubmit:
		v, err := c.activeLocked(rec.ID)
		if err != nil {
			return fmt.Errorf("wbc: journal divergence: submit: %w", err)
		}
		if !v.out[rec.Task] {
			return fmt.Errorf("wbc: journal divergence: submit of task %d not outstanding for volunteer %d", rec.Task, rec.ID)
		}
		c.applySubmitLocked(v, rec.Task, rec.Result,
			&auditDecision{replay: true, audited: rec.Audited, caught: rec.Caught})
	case jRebalance:
		c.applyRebalanceLocked()
	case jExpire:
		v, ok := c.vols[rec.ID]
		if !ok || v.departed || v.banned {
			return fmt.Errorf("wbc: journal divergence: lease expiry of inactive volunteer %d", rec.ID)
		}
		c.applyExpireLocked(v)
	default:
		return fmt.Errorf("wbc: journal: unknown record kind %d", rec.Kind)
	}
	c.applied = rec.Seq
	return nil
}

// A Journal is the coordinator's write-ahead log: a typed wrapper over
// the shared walog core. Obtain one with OpenJournal.
type Journal struct {
	log *walog.Log
}

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Obs, when non-nil, receives wbc_journal_* metrics.
	Obs *obs.Registry
	// WrapFile wraps the append-side file handle — the fault-injection
	// seam. Replay always reads the raw file.
	WrapFile func(walog.File) walog.File
	// OnDegrade fires exactly once (outside the coordinator lock) when a
	// journal failure degrades the coordinator to read-only.
	OnDegrade func(error)
}

// journalObs adapts walog instrumentation to wbc_journal_* metrics.
// Zero-value handles (nil registry) are no-ops.
type journalObs struct {
	appends, bytes   *obs.Counter
	syncOK, syncFail *obs.Counter
	syncDur          *obs.Histogram
	size             *obs.Gauge
	replayed, torn   *obs.Counter
	checkpoints      *obs.Counter
}

func newJournalObs(r *obs.Registry) journalObs {
	if r == nil {
		return journalObs{}
	}
	r.Help("wbc_journal_appends_total", "Journal records appended.")
	r.Help("wbc_journal_appended_bytes_total", "Journal bytes appended (framed).")
	r.Help("wbc_journal_syncs_total", "Journal fsync attempts, by result.")
	r.Help("wbc_journal_sync_duration_seconds", "Journal fsync latency.")
	r.Help("wbc_journal_size_bytes", "Current journal length.")
	r.Help("wbc_journal_replayed_records_total", "Records replayed at boot.")
	r.Help("wbc_journal_torn_tails_total", "Torn journal tails truncated at boot.")
	r.Help("wbc_journal_checkpoints_total", "Journal checkpoints (log resets).")
	return journalObs{
		appends:     r.Counter("wbc_journal_appends_total"),
		bytes:       r.Counter("wbc_journal_appended_bytes_total"),
		syncOK:      r.Counter("wbc_journal_syncs_total", obs.L("result", "ok")),
		syncFail:    r.Counter("wbc_journal_syncs_total", obs.L("result", "error")),
		syncDur:     r.Histogram("wbc_journal_sync_duration_seconds", obs.DefDurationBuckets),
		size:        r.Gauge("wbc_journal_size_bytes"),
		replayed:    r.Counter("wbc_journal_replayed_records_total"),
		torn:        r.Counter("wbc_journal_torn_tails_total"),
		checkpoints: r.Counter("wbc_journal_checkpoints_total"),
	}
}

func (o journalObs) LogAppend(n int64) {
	o.appends.Inc()
	o.bytes.Add(n)
}

func (o journalObs) LogSync(d time.Duration, err error) {
	if err != nil {
		o.syncFail.Inc()
	} else {
		o.syncOK.Inc()
	}
	o.syncDur.Observe(d.Seconds())
}

func (o journalObs) LogSize(n int64) { o.size.Set(n) }

func (o journalObs) LogReplay(records int, torn bool) {
	o.replayed.Add(int64(records))
	if torn {
		o.torn.Inc()
	}
}

func (o journalObs) LogCheckpoint() { o.checkpoints.Inc() }

// OpenJournal opens (creating if absent) the journal at path, replays its
// records into c — which must have just been built from the matching
// checkpoint (RestoreFile) or be fresh — and attaches the journal so
// every subsequent mutation is logged before it is acknowledged. Returns
// the number of records replayed (including sequence-gated skips).
func OpenJournal(path string, c *Coordinator, opt JournalOptions) (*Journal, int, error) {
	c.mu.Lock()
	l, replayed, err := walog.Open(path, func(payload []byte) error {
		rec, derr := decodeJournalRec(payload)
		if derr != nil {
			return derr
		}
		return c.applyJournalRecord(rec)
	}, walog.Options{
		Observer: newJournalObs(opt.Obs),
		WrapFile: opt.WrapFile,
		Name:     "wbc: journal",
	})
	c.mu.Unlock()
	if err != nil {
		return nil, replayed, err
	}
	j := &Journal{log: l}
	c.AttachJournal(j, opt.OnDegrade)
	return j, replayed, nil
}

// Size returns the current journal length in bytes.
func (j *Journal) Size() int64 { return j.log.Size() }

// Err returns the journal's sticky failure, if any.
func (j *Journal) Err() error { return j.log.Err() }

// Close syncs outstanding records and closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
