package wbc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pairfn/internal/apf"
	"pairfn/internal/extarray"
	"pairfn/internal/walog"
)

// snapOf captures c's complete persisted state as a decoded snapshot —
// the equality witness for recovery tests (both sides round-trip through
// the checkpoint codec, so map normalization is symmetric).
func snapOf(t *testing.T, c *Coordinator) coordSnap {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	var snap coordSnap
	if err := extarray.DecodeFramed(&buf, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return snap
}

func requireEqualState(t *testing.T, live, recovered *Coordinator) {
	t.Helper()
	a, b := snapOf(t, live), snapOf(t, recovered)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recovered state diverges from live state:\nlive:      %+v\nrecovered: %+v", a, b)
	}
}

// TestJournalRecCodec round-trips every record kind through the wire form.
func TestJournalRecCodec(t *testing.T) {
	recs := []journalRec{
		{Seq: 1, Kind: jRegister, ID: 7, Speed: 2.5, Row: 3},
		{Seq: 2, Kind: jRegister, ID: 8, Speed: -0.25, Row: 1 << 40},
		{Seq: 3, Kind: jDepart, ID: 7},
		{Seq: 4, Kind: jNext, ID: 8, Task: 1 << 50},
		{Seq: 5, Kind: jSubmit, ID: 8, Task: 912, Result: -42, Audited: true, Caught: true},
		{Seq: 6, Kind: jSubmit, ID: 8, Task: 913, Result: 0, Audited: true, Caught: false},
		{Seq: 7, Kind: jRebalance},
		{Seq: 1 << 60, Kind: jExpire, ID: 9},
	}
	for _, want := range recs {
		got, err := decodeJournalRec(encodeJournalRec(want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestJournalRecDecodeErrors: malformed payloads are errors, never panics
// or silent misreads — a decode failure aborts recovery.
func TestJournalRecDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{99, 1, 2}},
		{"register truncated speed", encodeJournalRec(journalRec{Kind: jRegister, Seq: 1, ID: 1, Speed: 1, Row: 2})[:5]},
		{"submit missing flags", func() []byte {
			b := encodeJournalRec(journalRec{Kind: jSubmit, Seq: 1, ID: 1, Task: 2, Result: 3})
			return b[:len(b)-1]
		}()},
		{"trailing bytes", append(encodeJournalRec(journalRec{Kind: jDepart, Seq: 1, ID: 1}), 0xFF)},
	}
	for _, tc := range cases {
		if _, err := decodeJournalRec(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// journaled builds a coordinator with an attached journal in dir.
func journaled(t *testing.T, dir string, cfg Config) (*Coordinator, *Journal, string) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal")
	j, _, err := OpenJournal(path, c, JournalOptions{})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return c, j, path
}

// TestJournalRecovery: a scripted run — registrations, issuance, honest and
// corrupt submissions (exercising the recorded audit verdicts), a depart —
// replayed from the journal alone reconstructs the exact live state, and
// the recovered coordinator keeps operating.
func TestJournalRecovery(t *testing.T) {
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}, AuditRate: 0.5, StrikeLimit: 2, Seed: 41}
	live, j, path := journaled(t, t.TempDir(), cfg)

	v1, _ := live.Register(1)
	v2, _ := live.Register(2)
	v3, _ := live.Register(0.5)
	for i := 0; i < 20; i++ {
		for _, v := range []VolunteerID{v1, v2, v3} {
			if live.Banned(v) {
				continue
			}
			k, err := live.NextTask(v)
			if err != nil {
				t.Fatal(err)
			}
			result := (DivisorSum{}).Do(k)
			if v == v3 {
				result++ // v3 lies; the audit RNG will eventually ban it
			}
			if _, err := live.Submit(v, k, result); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := live.NextTask(v1); err != nil {
		t.Fatal(err) // leave one task outstanding across the "crash"
	}
	if err := live.Depart(v2); err != nil {
		t.Fatal(err)
	}
	if err := live.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, replayed, err := OpenJournal(path, recovered, JournalOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer j2.Close()
	if replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	requireEqualState(t, live, recovered)

	// The recovered coordinator is live: registration reuses v2's vacated
	// row, issuance continues without index reuse.
	v4, err := recovered.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	row4, _ := recovered.Row(v4)
	if row4 != 2 {
		t.Fatalf("newcomer row after recovery = %d, want vacated 2", row4)
	}
}

// TestJournalCheckpointCut: SaveCheckpoint truncates the journal under the
// append lock; checkpoint + tail replay equals live state.
func TestJournalCheckpointCut(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}, Seed: 5}
	live, j, path := journaled(t, dir, cfg)

	v1, _ := live.Register(1)
	for i := 0; i < 10; i++ {
		k, _ := live.NextTask(v1)
		if _, err := live.Submit(v1, k, (DivisorSum{}).Do(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("journal size after checkpoint = %d, want 0", j.Size())
	}
	// Tail: mutations after the cut live only in the journal.
	v2, _ := live.Register(2)
	k, _ := live.NextTask(v2)
	if _, err := live.Submit(v2, k, (DivisorSum{}).Do(k)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := RestoreFile(ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, replayed, err := OpenJournal(path, recovered, JournalOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer j2.Close()
	if replayed != 3 { // register + next + submit after the cut
		t.Fatalf("replayed %d tail records, want 3", replayed)
	}
	requireEqualState(t, live, recovered)
}

// TestJournalSeqGating simulates a crash between checkpoint save and
// journal truncation: recovery sees a checkpoint that already contains a
// prefix of the journal, and sequence gating must skip exactly that prefix
// instead of double-applying it.
func TestJournalSeqGating(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}, Seed: 6}
	live, j, path := journaled(t, dir, cfg)

	v1, _ := live.Register(1)
	for i := 0; i < 5; i++ {
		k, _ := live.NextTask(v1)
		if _, err := live.Submit(v1, k, (DivisorSum{}).Do(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Save the checkpoint WITHOUT cutting the journal — the torn window.
	if err := writeCheckpointFile(live, ckpt); err != nil {
		t.Fatal(err)
	}
	v2, _ := live.Register(2)
	k, _ := live.NextTask(v2)
	if _, err := live.Submit(v2, k, (DivisorSum{}).Do(k)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := RestoreFile(ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, replayed, err := OpenJournal(path, recovered, JournalOptions{})
	if err != nil {
		t.Fatalf("recovery across torn checkpoint window: %v", err)
	}
	defer j2.Close()
	// Every record is read (the count includes gated skips)…
	if replayed != 14 { // 11 pre-checkpoint + 3 post
		t.Fatalf("replayed %d records, want 14", replayed)
	}
	// …but the pre-checkpoint prefix must not double-apply.
	requireEqualState(t, live, recovered)
}

func writeCheckpointFile(c *Coordinator, path string) error {
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func appendBytes(path string, p []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestJournalTornTail: garbage after the last record is truncated and the
// intact prefix still reconstructs the live state.
func TestJournalTornTail(t *testing.T) {
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}, Seed: 7}
	live, j, path := journaled(t, t.TempDir(), cfg)
	v1, _ := live.Register(1)
	k, _ := live.NextTask(v1)
	if _, err := live.Submit(v1, k, (DivisorSum{}).Do(k)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(path, []byte{0xBA, 0xD0}); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, replayed, err := OpenJournal(path, recovered, JournalOptions{})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer j2.Close()
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	requireEqualState(t, live, recovered)
}

// flakyLogFile lets tests flip journal sync failures on while the server
// runs; replay reads the raw file, so recovery is unaffected.
type flakyLogFile struct {
	walog.File
	failSync atomic.Bool
}

var errLogFault = errors.New("injected journal fault")

func (f *flakyLogFile) Sync() error {
	if f.failSync.Load() {
		return errLogFault
	}
	return f.File.Sync()
}

// TestJournalFailureDegrades: a journal sync failure flips the coordinator
// to read-only exactly once — mutations return ErrDegraded, while
// heartbeats, attribution and metrics keep answering.
func TestJournalFailureDegrades(t *testing.T) {
	fixed := time.Unix(1000, 0)
	cfg := Config{
		APF: apf.NewTHash(), Workload: DivisorSum{}, Seed: 8,
		LeaseTTL: time.Minute, Now: func() time.Time { return fixed },
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ff *flakyLogFile
	var degrades atomic.Int32
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), c, JournalOptions{
		WrapFile:  func(f walog.File) walog.File { ff = &flakyLogFile{File: f}; return ff },
		OnDegrade: func(error) { degrades.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	id, err := c.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.NextTask(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(id, k, (DivisorSum{}).Do(k)); err != nil {
		t.Fatal(err)
	}

	ff.failSync.Store(true)
	if _, err := c.Register(1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Register during journal failure = %v, want ErrDegraded", err)
	}
	if !c.Degraded() {
		t.Fatal("Degraded() = false after journal failure")
	}
	// Every mutation path is gated…
	if _, err := c.NextTask(id); !errors.Is(err, ErrDegraded) {
		t.Fatalf("NextTask = %v, want ErrDegraded", err)
	}
	if _, err := c.Submit(id, k, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Submit = %v, want ErrDegraded", err)
	}
	if err := c.Depart(id); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Depart = %v, want ErrDegraded", err)
	}
	if err := c.Rebalance(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Rebalance = %v, want ErrDegraded", err)
	}
	if _, err := c.ExpireLeases(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ExpireLeases = %v, want ErrDegraded", err)
	}
	// …while reads and lease renewal survive the read-only window.
	if err := c.Heartbeat(id); err != nil {
		t.Fatalf("Heartbeat on degraded coordinator = %v, want nil", err)
	}
	if got, err := c.Attribute(k); err != nil || got != id {
		t.Fatalf("Attribute on degraded coordinator = %d, %v; want %d", got, err, id)
	}
	if m := c.Metrics(); m.Completed != 1 {
		t.Fatalf("Metrics.Completed = %d, want 1", m.Completed)
	}
	if n := degrades.Load(); n != 1 {
		t.Fatalf("OnDegrade fired %d times, want exactly 1", n)
	}
}

// TestJournalDivergence: a journal that disagrees with the state it is
// replayed onto — wrong derivable outputs, sequence gaps, unknown actors —
// must abort recovery, not resurrect a corrupted ledger.
func TestJournalDivergence(t *testing.T) {
	writeJournal := func(t *testing.T, recs ...journalRec) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "journal")
		l, _, err := walog.Open(path, func([]byte) error { return nil }, walog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := l.Append(encodeJournalRec(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		recs []journalRec
	}{
		{"register row mismatch", []journalRec{{Seq: 1, Kind: jRegister, ID: 1, Speed: 1, Row: 7}}},
		{"register id mismatch", []journalRec{{Seq: 1, Kind: jRegister, ID: 5, Speed: 1, Row: 1}}},
		{"sequence gap", []journalRec{{Seq: 5, Kind: jRebalance}}},
		{"next for unknown volunteer", []journalRec{{Seq: 1, Kind: jNext, ID: 9, Task: 3}}},
		{"submit of task not outstanding", []journalRec{
			{Seq: 1, Kind: jRegister, ID: 1, Speed: 1, Row: 1},
			{Seq: 2, Kind: jSubmit, ID: 1, Task: 33, Result: 0},
		}},
		{"expiry of unknown volunteer", []journalRec{{Seq: 1, Kind: jExpire, ID: 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeJournal(t, tc.recs...)
			c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: DivisorSum{}})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = OpenJournal(path, c, JournalOptions{})
			if err == nil || !strings.Contains(err.Error(), "divergence") {
				t.Fatalf("recovery = %v, want divergence error", err)
			}
		})
	}
}

// TestJournalRecoveryProperty is the randomized equivalence check: for
// several seeds, a random interleaving of every coordinator operation —
// churning registrations, honest and corrupt submissions, departs, lease
// expiries under a fake clock, rebalances, mid-run checkpoints — must
// satisfy Restore(checkpoint) + replay(journal tail) ≡ live state.
func TestJournalRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(0, 0)
			const ttl = time.Second
			cfg := Config{
				APF: apf.NewTHash(), Workload: DivisorSum{},
				AuditRate: 0.3, StrikeLimit: 2, Seed: seed,
				LeaseTTL: ttl, Now: func() time.Time { return now },
			}
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt")
			live, j, path := journaled(t, dir, cfg)
			saved := false

			out := map[VolunteerID][]TaskID{} // test-side view of outstanding tasks
			var active []VolunteerID
			refresh := func() {
				active = active[:0]
				for _, r := range live.Report() {
					if !r.Banned && !r.Departed {
						active = append(active, r.ID)
					} else {
						delete(out, r.ID)
					}
				}
			}
			tolerable := func(err error) bool {
				return errors.Is(err, ErrBanned) || errors.Is(err, ErrDeparted) ||
					errors.Is(err, ErrUnknownVolunteer) || errors.Is(err, ErrNotIssuedToYou)
			}

			for op := 0; op < 400; op++ {
				refresh()
				switch p := rng.Float64(); {
				case p < 0.15 || len(active) == 0:
					if _, err := live.Register(rng.Float64()*3 + 0.1); err != nil {
						t.Fatalf("op %d register: %v", op, err)
					}
				case p < 0.40:
					id := active[rng.Intn(len(active))]
					k, err := live.NextTask(id)
					if err != nil {
						t.Fatalf("op %d next(%d): %v", op, id, err)
					}
					out[id] = append(out[id], k)
				case p < 0.70:
					id := active[rng.Intn(len(active))]
					ks := out[id]
					if len(ks) == 0 {
						continue
					}
					i := rng.Intn(len(ks))
					k := ks[i]
					out[id] = append(ks[:i], ks[i+1:]...)
					result := (DivisorSum{}).Do(k)
					if rng.Float64() < 0.25 {
						result += 1 + int64(rng.Intn(5)) // a lie, maybe audited
					}
					if _, err := live.Submit(id, k, result); err != nil && !tolerable(err) {
						t.Fatalf("op %d submit(%d, %d): %v", op, id, k, err)
					}
				case p < 0.78:
					id := active[rng.Intn(len(active))]
					if err := live.Heartbeat(id); err != nil && !tolerable(err) {
						t.Fatalf("op %d heartbeat(%d): %v", op, id, err)
					}
				case p < 0.84:
					id := active[rng.Intn(len(active))]
					if err := live.Depart(id); err != nil && !tolerable(err) {
						t.Fatalf("op %d depart(%d): %v", op, id, err)
					}
					delete(out, id)
				case p < 0.92:
					now = now.Add(time.Duration(rng.Int63n(int64(3 * ttl / 2))))
					if _, err := live.ExpireLeases(); err != nil {
						t.Fatalf("op %d expire: %v", op, err)
					}
				case p < 0.97:
					if err := live.Rebalance(); err != nil {
						t.Fatalf("op %d rebalance: %v", op, err)
					}
				default:
					if err := live.SaveCheckpoint(ckpt); err != nil {
						t.Fatalf("op %d checkpoint: %v", op, err)
					}
					saved = true
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			var recovered *Coordinator
			var err error
			if saved {
				recovered, err = RestoreFile(ckpt, cfg)
			} else {
				recovered, err = NewCoordinator(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			j2, _, err := OpenJournal(path, recovered, JournalOptions{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer j2.Close()
			requireEqualState(t, live, recovered)
		})
	}
}
