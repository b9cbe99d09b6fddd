package wbc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pairfn/internal/apf"
	"pairfn/internal/extarray"
)

// TestCheckpointRestore runs half a workload, checkpoints, restores into a
// fresh coordinator, finishes the workload there, and verifies attribution
// and issuance continue seamlessly — a restartable server keeps the
// accountability guarantee.
func TestCheckpointRestore(t *testing.T) {
	cfg := Config{
		APF: apf.NewTHash(), Workload: DivisorSum{},
		AuditRate: 0.5, StrikeLimit: 3, Seed: 77,
	}
	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := c1.MustRegister(1)
	v2 := c1.MustRegister(2)
	owner := map[TaskID]VolunteerID{}
	for i := 0; i < 10; i++ {
		for _, v := range []VolunteerID{v1, v2} {
			k, err := c1.NextTask(v)
			if err != nil {
				t.Fatal(err)
			}
			owner[k] = v
			if _, err := c1.Submit(v, k, (DivisorSum{}).Do(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Leave one task outstanding and one volunteer departed at checkpoint.
	pending, err := c1.NextTask(v1)
	if err != nil {
		t.Fatal(err)
	}
	owner[pending] = v1
	if err := c1.Depart(v2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c1.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Restore(&buf, Config{APF: apf.NewTHash(), Workload: DivisorSum{}})
	if err != nil {
		t.Fatal(err)
	}

	// State carried over.
	if got, want := c2.Metrics().Completed, c1.Metrics().Completed; got != want {
		t.Fatalf("completed: %d vs %d", got, want)
	}
	for k, want := range owner {
		got, err := c2.Attribute(k)
		if err != nil || got != want {
			t.Fatalf("restored Attribute(%d) = %d, %v; want %d", k, got, err, want)
		}
	}
	// Outstanding task is still owned by v1 and submittable.
	if _, err := c2.Submit(v1, pending, (DivisorSum{}).Do(pending)); err != nil {
		t.Fatalf("submit of outstanding task after restore: %v", err)
	}
	// Departed volunteer stays departed; its row is rebindable.
	if _, err := c2.NextTask(v2); err == nil {
		t.Fatal("departed volunteer active after restore")
	}
	v3 := c2.MustRegister(1)
	row3, _ := c2.Row(v3)
	row2, _ := c1.Row(v2)
	_ = row2 // v2's row is −1 after departure; v3 must take the vacated row 2
	if row3 != 2 {
		t.Fatalf("newcomer row = %d, want vacated 2", row3)
	}
	// Issuance continues where it left off (no index reuse).
	k2, err := c2.NextTask(v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := owner[k2]; dup {
		t.Fatalf("restored coordinator reissued index %d", k2)
	}
	// History reconstructs across the checkpoint boundary.
	hist, err := c2.Ledger().History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) < len(owner) {
		t.Fatalf("history %d records < %d issued", len(hist), len(owner))
	}
}

// TestRestoreValidation covers the failure paths.
func TestRestoreValidation(t *testing.T) {
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: Null{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()

	if _, err := Restore(bytes.NewReader(snapshot), Config{APF: apf.NewTStar(), Workload: Null{}}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint used APF") {
		t.Errorf("wrong APF: %v", err)
	}
	if _, err := Restore(bytes.NewReader(snapshot), Config{Workload: Null{}}); err == nil {
		t.Error("missing APF should fail")
	}
	if _, err := Restore(strings.NewReader("garbage"), Config{APF: apf.NewTHash(), Workload: Null{}}); err == nil {
		t.Error("garbage should fail")
	}
}

// checkpointBytes builds a realistic checkpoint stream: volunteers,
// completed work, an outstanding task, a depart — enough structure that
// corruption lands in interesting gob territory.
func checkpointBytes(t *testing.T) []byte {
	t.Helper()
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: DivisorSum{}, AuditRate: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	v1 := c.MustRegister(1)
	v2 := c.MustRegister(2)
	for i := 0; i < 5; i++ {
		k, _ := c.NextTask(v1)
		if _, err := c.Submit(v1, k, (DivisorSum{}).Do(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.NextTask(v2); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(v2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreCorruptCheckpoint flips every bit of a checkpoint: Restore
// must refuse each flip with an error that carries the restore context —
// never panic, never restore. A damaged checkpoint is a failed boot, not a
// crash loop and not a silently different ledger.
func TestRestoreCorruptCheckpoint(t *testing.T) {
	snapshot := checkpointBytes(t)
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}}
	corrupt := append([]byte(nil), snapshot...)
	for off := range corrupt {
		for bit := 0; bit < 8; bit++ {
			corrupt[off] ^= 1 << bit
			_, err := Restore(bytes.NewReader(corrupt), cfg)
			if err == nil {
				t.Fatalf("offset %d bit %d: corrupt checkpoint restored", off, bit)
			}
			if !strings.Contains(err.Error(), "Restore") {
				t.Fatalf("offset %d bit %d: error %q lacks restore context", off, bit, err)
			}
			corrupt[off] ^= 1 << bit
		}
	}
}

// TestRestoreTruncatedCheckpoint: every proper prefix of a checkpoint is a
// clean error, never a panic — the torn-write case for the checkpoint
// file itself (AtomicWriteFile makes this near-impossible in production,
// but boot must refuse a hand-copied or half-synced file).
func TestRestoreTruncatedCheckpoint(t *testing.T) {
	snapshot := checkpointBytes(t)
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}}
	for n := 0; n < len(snapshot); n++ {
		if _, err := Restore(bytes.NewReader(snapshot[:n]), cfg); err == nil {
			t.Fatalf("prefix of %d/%d bytes restored without error", n, len(snapshot))
		}
	}
}

// TestRestoreFramedGarbage: frames whose checksums hold but whose gob is
// garbage (or the gob of another type) are refused with an error, never a
// panic — the decoder's recover covers what the checksums cannot.
func TestRestoreFramedGarbage(t *testing.T) {
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}}
	var other bytes.Buffer
	if err := extarray.EncodeFramed(&other, struct{ APFName []int }{[]int{1}}); err != nil {
		t.Fatal(err)
	}
	garbage := [][]byte{other.Bytes()}
	for _, g := range [][]byte{[]byte("not a gob"), bytes.Repeat([]byte{0xff}, 64), {0x03, 0xff, 0x81, 0x00}} {
		framed, _ := extarray.EncodeFrame(nil, g)
		garbage = append(garbage, framed)
	}
	for _, b := range garbage {
		if _, err := Restore(bytes.NewReader(b), cfg); err == nil {
			t.Fatalf("framed garbage %x restored", b)
		}
	}
}

// TestRestoreFileErrors: the file-level wrapper names the path in every
// failure mode — missing, truncated, corrupt — so a failed boot log line
// tells the operator which artifact to inspect.
func TestRestoreFileErrors(t *testing.T) {
	cfg := Config{APF: apf.NewTHash(), Workload: DivisorSum{}}
	dir := t.TempDir()

	missing := filepath.Join(dir, "absent.ckpt")
	if _, err := RestoreFile(missing, cfg); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("missing file error %v does not name the path", err)
	}

	snapshot := checkpointBytes(t)
	truncated := filepath.Join(dir, "truncated.ckpt")
	if err := os.WriteFile(truncated, snapshot[:len(snapshot)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(truncated, cfg); err == nil || !strings.Contains(err.Error(), truncated) {
		t.Fatalf("truncated file error %v does not name the path", err)
	}

	good := filepath.Join(dir, "good.ckpt")
	if err := os.WriteFile(good, snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(good, cfg); err != nil {
		t.Fatalf("intact checkpoint failed to restore: %v", err)
	}
}
