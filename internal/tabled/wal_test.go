package tabled

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
)

// newWALBackend returns an empty sharded table for WAL tests.
func newWALBackend(t *testing.T, rows, cols int64) *Sharded[string] {
	t.Helper()
	s, err := NewSharded[string](core.SquareShell{}, 4, slabStore, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tableState flattens a backend for comparison.
func tableState(t *testing.T, b Backend[string]) map[[2]int64]string {
	t.Helper()
	rows, cols := b.Dims()
	state := map[[2]int64]string{}
	for x := int64(1); x <= rows; x++ {
		for y := int64(1); y <= cols; y++ {
			v, ok, err := b.Get(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				state[[2]int64{x, y}] = v
			}
		}
	}
	return state
}

func openWALInto(t *testing.T, path string, b Backend[string], opt WALOptions) (*WAL, int) {
	t.Helper()
	w, replayed, err := OpenWAL(path, func(rec WALRecord) error { return ApplyWALRecord(b, rec) }, opt)
	if err != nil {
		t.Fatal(err)
	}
	return w, replayed
}

// TestWALRoundTrip appends sets and a resize, closes, and replays into a
// fresh table: state must match exactly.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.wal")
	live := newWALBackend(t, 16, 16)
	w, replayed := openWALInto(t, path, live, WALOptions{})
	if replayed != 0 {
		t.Fatalf("fresh log replayed %d records", replayed)
	}

	cells := []Cell[string]{
		{X: 1, Y: 1, V: "a"}, {X: 2, Y: 3, V: "b"}, {X: 16, Y: 16, V: "corner"},
	}
	if errs := setBatch(live, cells); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal(errs)
	}
	if err := w.AppendSet(cells); err != nil {
		t.Fatal(err)
	}
	if err := live.Resize(32, 16); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendResize(32, 16); err != nil {
		t.Fatal(err)
	}
	late := []Cell[string]{{X: 30, Y: 5, V: "after-grow"}}
	if errs := setBatch(live, late); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := w.AppendSet(late); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := newWALBackend(t, 16, 16)
	w2, replayed := openWALInto(t, path, recovered, WALOptions{})
	defer w2.Close()
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	r, c := recovered.Dims()
	if r != 32 || c != 16 {
		t.Fatalf("recovered dims %d×%d, want 32×16", r, c)
	}
	want := tableState(t, live)
	got := tableState(t, recovered)
	if len(got) != len(want) {
		t.Fatalf("recovered %d cells, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cell %v: %q, want %q", k, got[k], v)
		}
	}
}

// TestWALReplaySurfacesCellErrors: a replayed set record whose cell the
// table cannot take aborts recovery, wherever in the record the cell sits.
func TestWALReplaySurfacesCellErrors(t *testing.T) {
	rec := WALRecord{Kind: walKindSet, Cells: []Cell[string]{
		{X: 1, Y: 1, V: "fits"}, {X: 2, Y: 2, V: "fits"}, {X: 9, Y: 1, V: "out of bounds"},
	}}
	err := ApplyWALRecord(newWALBackend(t, 8, 8), rec)
	if !errors.Is(err, extarray.ErrBounds) {
		t.Fatalf("replaying an out-of-bounds last cell: %v, want ErrBounds", err)
	}
}

// TestWALReplayIdempotent replays the same tail twice (recovery crashing
// and re-running): the store state must be identical both times.
func TestWALReplayIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.wal")
	live := newWALBackend(t, 8, 8)
	w, _ := openWALInto(t, path, live, WALOptions{})
	for i := int64(1); i <= 8; i++ {
		cells := []Cell[string]{{X: i, Y: i, V: fmt.Sprintf("v%d", i)}}
		if err := w.AppendSet(cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendResize(12, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	once := newWALBackend(t, 8, 8)
	w1, n1 := openWALInto(t, path, once, WALOptions{})
	w1.Close()

	// Replay the SAME tail twice into another table: a crash after a
	// partial recovery means records can be applied more than once.
	twice := newWALBackend(t, 8, 8)
	w2, _ := openWALInto(t, path, twice, WALOptions{})
	w2.Close()
	w3, n3 := openWALInto(t, path, twice, WALOptions{})
	w3.Close()
	if n1 != 9 || n3 != 9 {
		t.Fatalf("replay counts %d, %d; want 9, 9", n1, n3)
	}

	wantState, gotState := tableState(t, once), tableState(t, twice)
	if len(wantState) != len(gotState) {
		t.Fatalf("double replay: %d cells vs %d", len(gotState), len(wantState))
	}
	for k, v := range wantState {
		if gotState[k] != v {
			t.Errorf("cell %v: %q vs %q", k, gotState[k], v)
		}
	}
	r1, c1 := once.Dims()
	r2, c2 := twice.Dims()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("dims diverge: %d×%d vs %d×%d", r1, c1, r2, c2)
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: garbage half-frame
// at the end of the log must be truncated at boot, keeping every intact
// record, and the truncation must be durable (a second boot sees no tear).
func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.wal")
	live := newWALBackend(t, 8, 8)
	w, _ := openWALInto(t, path, live, WALOptions{})
	good := []Cell[string]{{X: 1, Y: 1, V: "survives"}}
	if err := w.AppendSet(good); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	goodSize, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn append: half a frame of a record that was never acknowledged.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x13, 0x09}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec1 := newWALBackend(t, 8, 8)
	w1, replayed := openWALInto(t, path, rec1, WALOptions{})
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1", replayed)
	}
	if v, ok, _ := rec1.Get(1, 1); !ok || v != "survives" {
		t.Fatalf("acked record lost: %q %v", v, ok)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != goodSize.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", after.Size(), goodSize.Size())
	}

	// The truncated log must boot cleanly a second time.
	rec2 := newWALBackend(t, 8, 8)
	w2, replayed2 := openWALInto(t, path, rec2, WALOptions{})
	w2.Close()
	if replayed2 != 1 {
		t.Fatalf("second boot replayed %d, want 1", replayed2)
	}
}

// TestWALCheckpoint verifies the snapshot/truncate cut: after CheckpointSeq,
// the log is empty, the save ran, and appends continue on the fresh log.
func TestWALCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.wal")
	snap := filepath.Join(dir, "table.gob")
	live := newWALBackend(t, 8, 8)
	w, _ := openWALInto(t, path, live, WALOptions{})
	defer w.Close()

	pre := []Cell[string]{{X: 2, Y: 2, V: "in-snapshot"}}
	if errs := setBatch(live, pre); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := w.AppendSet(pre); err != nil {
		t.Fatal(err)
	}
	if w.Size() == 0 {
		t.Fatal("log empty before checkpoint")
	}
	if err := w.CheckpointSeq(func(cut uint64) error { return live.SaveFileAt(snap, cut, 0) }); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("log size %d after checkpoint, want 0", w.Size())
	}

	post := []Cell[string]{{X: 3, Y: 3, V: "after-checkpoint"}}
	if errs := setBatch(live, post); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := w.AppendSet(post); err != nil {
		t.Fatal(err)
	}

	// Recovery = snapshot + tail: both cells, each exactly from its layer.
	recovered, seq, _, err := LoadShardedFileMeta[string](snap, core.SquareShell{}, 4, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("snapshot cut %d, want 1 (the one pre-checkpoint record)", seq)
	}
	if v, ok, _ := recovered.Get(2, 2); !ok || v != "in-snapshot" {
		t.Fatalf("snapshot cell: %q %v", v, ok)
	}
	if _, ok, _ := recovered.Get(3, 3); ok {
		t.Fatal("post-checkpoint cell leaked into the snapshot")
	}
	w.Close()
	wr, replayed := openWALInto(t, path, recovered, WALOptions{})
	wr.Close()
	if replayed != 1 {
		t.Fatalf("tail replayed %d records, want 1", replayed)
	}
	if v, ok, _ := recovered.Get(3, 3); !ok || v != "after-checkpoint" {
		t.Fatalf("tail cell: %q %v", v, ok)
	}
}

// gateWALFile counts the frames written and the fsyncs run through it.
// Its first Sync closes entered and then holds until want frames are
// written, so every append made meanwhile finds that sync in flight.
type gateWALFile struct {
	WALFile
	want    int
	entered chan struct{}
	full    chan struct{}

	mu            sync.Mutex
	writes, syncs int
}

func (g *gateWALFile) Write(p []byte) (int, error) {
	n, err := g.WALFile.Write(p)
	g.mu.Lock()
	g.writes++
	if g.writes == 2*g.want { // a frame is written as header, then payload
		close(g.full)
	}
	g.mu.Unlock()
	return n, err
}

func (g *gateWALFile) Sync() error {
	g.mu.Lock()
	g.syncs++
	first := g.syncs == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		select {
		case <-g.full:
		case <-time.After(5 * time.Second):
		}
	}
	return g.WALFile.Sync()
}

// TestWALGroupCommit: set batches appended while an fsync is in flight
// share the next one. One appender's fsync is held until every other
// appender has written its record, so exactly two fsyncs make all of them
// durable, and every record replays.
func TestWALGroupCommit(t *testing.T) {
	const appenders = 8
	path := filepath.Join(t.TempDir(), "table.wal")
	g := &gateWALFile{want: appenders, entered: make(chan struct{}), full: make(chan struct{})}
	live := newWALBackend(t, 64, 64)
	w, _ := openWALInto(t, path, live, WALOptions{
		WrapFile: func(f WALFile) WALFile { g.WALFile = f; return g },
	})

	var wg sync.WaitGroup
	appendOne := func(a int) {
		defer wg.Done()
		if err := w.AppendSet([]Cell[string]{{X: int64(a + 1), Y: 1, V: "gc"}}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go appendOne(0)
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first AppendSet never reached fsync")
	}
	for a := 1; a < appenders; a++ {
		wg.Add(1)
		go appendOne(a)
	}
	wg.Wait()
	g.mu.Lock()
	syncs := g.syncs
	g.mu.Unlock()
	if syncs != 2 {
		t.Fatalf("%d appends took %d fsyncs, want 2", appenders, syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := newWALBackend(t, 64, 64)
	w2, replayed := openWALInto(t, path, recovered, WALOptions{})
	w2.Close()
	if replayed != appenders {
		t.Fatalf("replayed %d records, want %d", replayed, appenders)
	}
}

// TestWALStickyFailure: after an injected sync failure, every subsequent
// append fails with the original error — the degraded-mode contract.
func TestWALStickyFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.wal")
	fi := NewFaultInjector(&Faults{Seed: 1, SyncErrRate: 1})
	live := newWALBackend(t, 8, 8)
	w, _ := openWALInto(t, path, live, WALOptions{WrapFile: fi.WrapWALFile})
	defer w.Close()

	err := w.AppendSet([]Cell[string]{{X: 1, Y: 1, V: "x"}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append = %v, want injected sync failure", err)
	}
	err2 := w.AppendSet([]Cell[string]{{X: 2, Y: 2, V: "y"}})
	if !errors.Is(err2, ErrInjected) {
		t.Fatalf("second append = %v, want sticky failure", err2)
	}
	if w.Err() == nil {
		t.Fatal("Err() should report the sticky failure")
	}
}

// TestWALTornWriteFault: the injected torn write at byte N leaves exactly
// the pre-tear records recoverable, and the tear truncates cleanly.
func TestWALTornWriteFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.wal")
	live := newWALBackend(t, 8, 8)
	// First record is ~20 bytes; tear inside the second.
	fi := NewFaultInjector(&Faults{Seed: 1, TornWriteAt: 30})
	w, _ := openWALInto(t, path, live, WALOptions{WrapFile: fi.WrapWALFile})

	if err := w.AppendSet([]Cell[string]{{X: 1, Y: 1, V: "acked"}}); err != nil {
		t.Fatal(err)
	}
	err := w.AppendSet([]Cell[string]{{X: 2, Y: 2, V: "torn-away"}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append across the tear = %v, want injected", err)
	}
	w.Close()

	recovered := newWALBackend(t, 8, 8)
	w2, replayed := openWALInto(t, path, recovered, WALOptions{})
	w2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the acked one)", replayed)
	}
	if v, ok, _ := recovered.Get(1, 1); !ok || v != "acked" {
		t.Fatalf("acked record lost: %q %v", v, ok)
	}
	if _, ok, _ := recovered.Get(2, 2); ok {
		t.Fatal("torn (unacknowledged) record resurrected")
	}
}

func TestWALRecordCodecFuzzish(t *testing.T) {
	// Hand-rolled decode must reject truncations of valid records.
	rec := appendSetRecord(nil, []Cell[string]{{X: -5, Y: 1 << 40, V: "signed and big"}})
	if _, err := decodeWALRecord(rec); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, err := decodeWALRecord(rec[:cut]); err == nil {
			t.Fatalf("truncated record at %d accepted", cut)
		}
	}
	rz := encodeResizeRecord(7, 9)
	got, err := decodeWALRecord(rz)
	if err != nil || got.Rows != 7 || got.Cols != 9 {
		t.Fatalf("resize decode: %+v, %v", got, err)
	}
	if _, err := decodeWALRecord([]byte{99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := decodeWALRecord(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

// BenchmarkWALReplay times boot replay of a preloaded table: every cell of
// the benchmark's two shapes, 256×256 (node-read) and 8×8192 (node-skinny),
// set in 128-cell records, each copied into one reused frame buffer as
// extarray.ReadFrames hands it over, then decoded and applied to a fresh
// 16-shard SlabStore table. Decoded values alias that buffer, so the
// allocations it reports are per record and per arena chunk, not per cell.
func BenchmarkWALReplay(b *testing.B) {
	const batch = 128
	for _, shape := range []struct{ rows, cols int64 }{{256, 256}, {8, 8192}} {
		var records [][]byte
		cells := make([]Cell[string], 0, batch)
		flush := func() {
			records = append(records, appendSetRecord(nil, cells))
			cells = cells[:0]
		}
		for x := int64(1); x <= shape.rows; x++ {
			for y := int64(1); y <= shape.cols; y++ {
				cells = append(cells, Cell[string]{X: x, Y: y, V: fmt.Sprintf("%015d:%016d", x, y)})
				if len(cells) == batch {
					flush()
				}
			}
		}
		if len(cells) > 0 {
			flush()
		}
		b.Run(fmt.Sprintf("%dx%d", shape.rows, shape.cols), func(b *testing.B) {
			b.ReportAllocs()
			var frame []byte
			var s *Sharded[string]
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = NewSharded[string](core.SquareShell{}, 16, slabStore, shape.rows, shape.cols, nil); err != nil {
					b.Fatal(err)
				}
				for _, rec := range records {
					frame = append(frame[:0], rec...)
					r, err := decodeWALRecord(frame)
					if err != nil {
						b.Fatal(err)
					}
					if err := ApplyWALRecord(s, r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/replay")
			if v, ok, _ := s.Get(1, 1); !ok || v != fmt.Sprintf("%015d:%016d", 1, 1) {
				b.Fatalf("cell (1, 1) replayed as %q", v)
			}
		})
	}
}
