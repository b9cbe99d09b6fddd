package tabled

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"pairfn/internal/extarray"
)

// This file is the harness that proves the recovery paths: a deterministic,
// seed-driven fault injector for both layers where the real world fails —
// the backend (errors, latency) and the WAL volume (torn writes, sync
// failures). It is wired behind tabledserver's -faults flag and is
// strictly zero-cost when disabled: WrapBackend and WrapWALFile return
// their argument untouched for a nil *Faults, so the production hot path
// carries no extra indirection (BenchmarkFaultWrapDisabled pins this).

// ErrInjected is the error every injected backend fault wraps, so tests
// and clients can tell injected faults from real ones.
var ErrInjected = errors.New("tabled: injected fault")

// Faults configures deterministic fault injection. The zero value injects
// nothing; a nil *Faults disables the wrappers entirely.
type Faults struct {
	// Seed drives the private PRNG: the same seed and operation sequence
	// injects the same faults.
	Seed int64
	// ErrRate is the probability each backend batch/op fails with
	// ErrInjected before touching the real backend.
	ErrRate float64
	// Latency is added to every backend operation (before any injected
	// error), modeling a slow disk or a saturated node.
	Latency time.Duration
	// TornWriteAt, when > 0, makes the WAL file wrapper tear the write
	// that crosses that cumulative byte offset: the first bytes are
	// written, the rest vanish, and the write returns an error — the
	// on-disk image a power cut leaves.
	TornWriteAt int64
	// SyncErrRate is the probability each WAL fsync fails with ErrInjected
	// (the degraded-mode trigger).
	SyncErrRate float64
	// SnapCorruptRate is the probability one /v1/repl/snapshot response
	// stream has a byte flipped mid-flight (transfer corruption; the
	// reseeding follower must fail closed on the CRC frames and retry).
	SnapCorruptRate float64
}

// ParseFaults parses the -faults flag syntax: comma-separated key=value
// pairs, e.g. "seed=7,errrate=0.05,latency=2ms,tornat=8192,syncerr=0.01".
// An empty spec returns nil (faults disabled).
func ParseFaults(spec string) (*Faults, error) {
	if spec == "" {
		return nil, nil
	}
	fc := &Faults{Seed: 1}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("tabled: faults: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			fc.Seed, err = strconv.ParseInt(v, 10, 64)
		case "errrate":
			fc.ErrRate, err = strconv.ParseFloat(v, 64)
		case "latency":
			fc.Latency, err = time.ParseDuration(v)
		case "tornat":
			fc.TornWriteAt, err = strconv.ParseInt(v, 10, 64)
		case "syncerr":
			fc.SyncErrRate, err = strconv.ParseFloat(v, 64)
		case "snapcorrupt":
			fc.SnapCorruptRate, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("tabled: faults: unknown key %q (seed|errrate|latency|tornat|syncerr|snapcorrupt)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("tabled: faults: %s: %w", k, err)
		}
	}
	return fc, nil
}

// injector is the shared, mutex-guarded PRNG state. Backend and file
// wrappers built from one *Faults share it, so a single seed fixes the
// whole fault schedule.
type injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	fc  Faults

	written int64 // cumulative WAL bytes, for TornWriteAt
	torn    bool
}

func newInjector(fc *Faults) *injector {
	return &injector{rng: rand.New(rand.NewSource(fc.Seed)), fc: *fc}
}

// opFault rolls one backend-op fault: the injected latency and whether the
// op should fail.
func (in *injector) opFault() (time.Duration, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	fail := in.fc.ErrRate > 0 && in.rng.Float64() < in.fc.ErrRate
	return in.fc.Latency, fail
}

// syncFault rolls one WAL fsync fault.
func (in *injector) syncFault() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fc.SyncErrRate > 0 && in.rng.Float64() < in.fc.SyncErrRate
}

// snapCorruptAt rolls one snapshot-stream corruption: (offset, true) to
// flip the byte at offset of a size-byte response, (0, false) to serve it
// intact.
func (in *injector) snapCorruptAt(size int64) (int64, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fc.SnapCorruptRate <= 0 || size <= 0 || in.rng.Float64() >= in.fc.SnapCorruptRate {
		return 0, false
	}
	return in.rng.Int63n(size), true
}

// tornWrite accounts n incoming bytes and reports how many to actually
// write: (n, false) normally, (k < n, true) exactly once when the write
// crosses TornWriteAt.
func (in *injector) tornWrite(n int) (int, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fc.TornWriteAt <= 0 || in.torn {
		in.written += int64(n)
		return n, false
	}
	if in.written+int64(n) <= in.fc.TornWriteAt {
		in.written += int64(n)
		return n, false
	}
	k := in.fc.TornWriteAt - in.written
	if k < 0 {
		k = 0
	}
	in.torn = true
	in.written += k
	return int(k), true
}

// A FaultInjector owns one fault schedule and hands out the wrappers that
// share it.
type FaultInjector struct{ in *injector }

// NewFaultInjector builds the injector for fc; nil fc returns nil, and a
// nil *FaultInjector's wrappers are identity functions.
func NewFaultInjector(fc *Faults) *FaultInjector {
	if fc == nil {
		return nil
	}
	return &FaultInjector{in: newInjector(fc)}
}

// WrapBackend decorates b with injected latency and errors. On a nil
// injector it returns b itself: disabled faults cost nothing.
func (fi *FaultInjector) WrapBackend(b Backend[string]) Backend[string] {
	if fi == nil {
		return b
	}
	return &faultBackend{b: b, in: fi.in}
}

// SnapshotCorruptAt rolls one /v1/repl/snapshot stream fault: (offset,
// true) tells the serving side to flip the byte at offset of a size-byte
// response. Nil-safe; (0, false) means serve intact.
func (fi *FaultInjector) SnapshotCorruptAt(size int64) (int64, bool) {
	if fi == nil {
		return 0, false
	}
	return fi.in.snapCorruptAt(size)
}

// WrapWALFile decorates the WAL's file handle with torn writes and sync
// failures. On a nil injector it returns f itself.
func (fi *FaultInjector) WrapWALFile(f WALFile) WALFile {
	if fi == nil {
		return f
	}
	return &faultFile{f: f, in: fi.in}
}

// faultBackend injects per-op faults in front of a real backend. Reads and
// writes both roll the error dice: the retrying client must survive both.
type faultBackend struct {
	b  Backend[string]
	in *injector
}

func (f *faultBackend) roll() error {
	d, fail := f.in.opFault()
	if d > 0 {
		time.Sleep(d)
	}
	if fail {
		return ErrInjected
	}
	return nil
}

func (f *faultBackend) Describe() Info { return f.b.Describe() }

func (f *faultBackend) Dims() (int64, int64) { return f.b.Dims() }

func (f *faultBackend) Stats() extarray.Stats { return f.b.Stats() }

func (f *faultBackend) Get(x, y int64) (string, bool, error) {
	if err := f.roll(); err != nil {
		return "", false, err
	}
	return f.b.Get(x, y)
}

func (f *faultBackend) Set(x, y int64, v string) error {
	if err := f.roll(); err != nil {
		return err
	}
	return f.b.Set(x, y, v)
}

func (f *faultBackend) Resize(rows, cols int64) error {
	if err := f.roll(); err != nil {
		return err
	}
	return f.b.Resize(rows, cols)
}

// SetBatchInto implements Backend; a fault-wrapped backend keeps the
// zero-allocation server path (modulo the injected fault roll).
func (f *faultBackend) SetBatchInto(cells []Cell[string], errs []error) {
	if err := f.roll(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	f.b.SetBatchInto(cells, errs)
}

// GetBatchInto implements Backend.
func (f *faultBackend) GetBatchInto(keys []Pos, res []GetResult[string]) {
	if err := f.roll(); err != nil {
		clear(res)
		for i := range res {
			res[i].Err = err
		}
		return
	}
	f.b.GetBatchInto(keys, res)
}

// faultFile injects torn writes and sync failures in front of a WALFile.
type faultFile struct {
	f  WALFile
	in *injector
}

func (f *faultFile) Write(p []byte) (int, error) {
	k, torn := f.in.tornWrite(len(p))
	if !torn {
		return f.f.Write(p)
	}
	n, err := f.f.Write(p[:k])
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: torn write after %d of %d bytes", ErrInjected, k, len(p))
}

func (f *faultFile) Sync() error {
	if f.in.syncFault() {
		return fmt.Errorf("%w: sync failure", ErrInjected)
	}
	return f.f.Sync()
}

func (f *faultFile) Truncate(size int64) error { return f.f.Truncate(size) }

func (f *faultFile) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

func (f *faultFile) Close() error { return f.f.Close() }
