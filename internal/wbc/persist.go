package wbc

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"pairfn/internal/extarray"
)

// Checkpoint forms for extarray.EncodeFramed. Only state is serialized:
// the APF and Workload are code and must be supplied again on restore
// (checked by APF name, since task indices are only meaningful under the
// allocation function that issued them).

type volSnap struct {
	ID        VolunteerID
	Row       int64
	Speed     float64
	Strikes   int
	Banned    bool
	Departed  bool
	Completed int64
	Out       []TaskID
}

type ledgerSnap struct {
	Rows      map[int64][]Binding
	NextSeq   map[int64]int64
	Overrides map[TaskID]VolunteerID
	MaxIssued TaskID
}

type coordSnap struct {
	APFName   string
	NextVol   VolunteerID
	NextRow   int64
	FreeRows  []int64
	Orphans   map[int64][]TaskID
	Vols      []volSnap
	Results   map[TaskID]int64
	Metrics   Metrics
	Applied   uint64 // journal sequence gate (see applyJournalRecord)
	AuditRate float64
	Strikes   int
	Seed      int64
	Ledger    ledgerSnap
}

// Checkpoint serializes the coordinator's complete state — ledger,
// volunteers, outstanding tasks, results, counters — so a restarted server
// can resume with accountability intact. The audit RNG restarts from the
// configured seed (sampling decisions are not part of accountability).
func (c *Coordinator) Checkpoint(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpointLocked(w)
}

func (c *Coordinator) checkpointLocked(w io.Writer) error {
	snap := coordSnap{
		APFName:   c.cfg.APF.Name(),
		NextVol:   c.nextVol,
		NextRow:   c.nextRow,
		FreeRows:  append([]int64(nil), c.freeRows...),
		Orphans:   c.orphans,
		Results:   c.results,
		Metrics:   c.m,
		Applied:   c.applied,
		AuditRate: c.cfg.AuditRate,
		Strikes:   c.cfg.StrikeLimit,
		Seed:      c.cfg.Seed,
		Ledger: ledgerSnap{
			Rows:      c.ledger.rows,
			NextSeq:   c.ledger.nextSeq,
			Overrides: c.ledger.overrides,
			MaxIssued: c.ledger.maxIssued,
		},
	}
	for _, v := range c.vols {
		vs := volSnap{
			ID: v.id, Row: v.row, Speed: v.speed, Strikes: v.strikes,
			Banned: v.banned, Departed: v.departed, Completed: v.completed,
		}
		for k := range v.out {
			vs.Out = append(vs.Out, k)
		}
		sort.Slice(vs.Out, func(i, j int) bool { return vs.Out[i] < vs.Out[j] })
		snap.Vols = append(snap.Vols, vs)
	}
	sort.Slice(snap.Vols, func(i, j int) bool { return snap.Vols[i].ID < snap.Vols[j].ID })
	return extarray.EncodeFramed(w, snap)
}

// SaveCheckpoint atomically writes the coordinator's state to path
// (temp + fsync + rename, via extarray.AtomicWriteFile) and, when a
// journal is attached, truncates the journal under the append lock — the
// tabled checkpoint recipe: anything in the snapshot's consistent cut is
// durable before the log that carried it is cut, and a crash between the
// two is healed by sequence-gated replay.
func (c *Coordinator) SaveCheckpoint(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	save := func() error {
		return extarray.AtomicWriteFile(path, func(w io.Writer) error {
			return c.checkpointLocked(w)
		})
	}
	if c.journal != nil {
		return c.journal.log.Checkpoint(save)
	}
	return save()
}

// Restore reconstructs a checkpointed coordinator. cfg must carry the same
// APF (checked by name) and Workload; AuditRate/StrikeLimit/Seed from the
// snapshot take precedence over cfg's. Active volunteers are granted a
// fresh lease (when cfg.LeaseTTL > 0): survivors of the crash get a full
// TTL to reconnect before their tasks are reclaimed.
func Restore(r io.Reader, cfg Config) (*Coordinator, error) {
	var snap coordSnap
	if err := extarray.DecodeFramed(r, &snap); err != nil {
		return nil, fmt.Errorf("wbc: Restore: %w", err)
	}
	if cfg.APF == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("wbc: Restore: Config.APF and Config.Workload are required")
	}
	if cfg.APF.Name() != snap.APFName {
		return nil, fmt.Errorf("wbc: Restore: checkpoint used APF %q, not %q",
			snap.APFName, cfg.APF.Name())
	}
	cfg.AuditRate = snap.AuditRate
	cfg.StrikeLimit = snap.Strikes
	cfg.Seed = snap.Seed
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.nextVol = snap.NextVol
	c.nextRow = snap.NextRow
	c.freeRows = snap.FreeRows
	if snap.Orphans != nil {
		c.orphans = snap.Orphans
	}
	if snap.Results != nil {
		c.results = snap.Results
	}
	c.m = snap.Metrics
	c.applied = snap.Applied
	c.ledger.maxIssued = snap.Ledger.MaxIssued
	if snap.Ledger.Rows != nil {
		c.ledger.rows = snap.Ledger.Rows
	}
	if snap.Ledger.NextSeq != nil {
		c.ledger.nextSeq = snap.Ledger.NextSeq
	}
	if snap.Ledger.Overrides != nil {
		c.ledger.overrides = snap.Ledger.Overrides
	}
	for _, vs := range snap.Vols {
		v := &volState{
			id: vs.ID, row: vs.Row, speed: vs.Speed, strikes: vs.Strikes,
			banned: vs.Banned, departed: vs.Departed, completed: vs.Completed,
			out: make(map[TaskID]bool, len(vs.Out)),
		}
		for _, k := range vs.Out {
			v.out[k] = true
		}
		c.vols[vs.ID] = v
		if v.row >= 0 && !v.banned && !v.departed {
			c.rowVol[v.row] = v.id
			c.renewLeaseLocked(v.id)
		}
	}
	// Restart the audit RNG deterministically from the configured seed.
	c.rng = rand.New(rand.NewSource(cfg.Seed))
	return c, nil
}

// RestoreFile is Restore from a checkpoint file on disk.
func RestoreFile(path string, cfg Config) (*Coordinator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wbc: restore %s: %w", path, err)
	}
	defer f.Close()
	c, err := Restore(f, cfg)
	if err != nil {
		return nil, fmt.Errorf("wbc: restore %s: %w", path, err)
	}
	return c, nil
}
