package spread

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/obs"
)

// engineTestMappings is the PF panel the equivalence tests sweep:
// quadratic, optimal, locality-oriented and injective-only mappings.
func engineTestMappings() []core.StorageMapping {
	return []core.StorageMapping{
		core.Diagonal{},
		core.SquareShell{},
		core.Morton{},
		core.NewCachedHyperbolic(2048),
		core.MustAspect(2, 3),
		core.MustDovetail(core.MustAspect(1, 1), core.MustAspect(1, 2)),
	}
}

// TestEngineMatchesSerialQuick is the parallel-vs-serial equivalence
// property test: for random n and worker counts, Engine.Measure must be
// bit-identical to Measure — spread and argmax both.
func TestEngineMatchesSerialQuick(t *testing.T) {
	mappings := engineTestMappings()
	prop := func(rawN uint16, rawW uint8, rawF uint8) bool {
		n := int64(rawN)%2048 + 1
		workers := int(rawW)%9 + 1
		f := mappings[int(rawF)%len(mappings)]
		wantS, wantAt, wantErr := Measure(f, n)
		if wantErr != nil {
			t.Fatalf("serial Measure(%s, %d): %v", f.Name(), n, wantErr)
		}
		e := &Engine{Workers: workers}
		s, at, err := e.Measure(context.Background(), f, n)
		if err != nil {
			t.Logf("engine Measure(%s, %d, %d workers): %v", f.Name(), n, workers, err)
			return false
		}
		if s != wantS || at != wantAt {
			t.Logf("%s n=%d workers=%d: engine (%d, %+v) vs serial (%d, %+v)",
				f.Name(), n, workers, s, at, wantS, wantAt)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineConformingMatchesSerial checks Engine.MeasureConforming and
// MeasureConformingParallel against the serial eq. 3.2 loop.
func TestEngineConformingMatchesSerial(t *testing.T) {
	for _, r := range [][2]int64{{1, 1}, {1, 2}, {3, 2}} {
		a, b := r[0], r[1]
		f := core.MustAspect(a, b)
		for _, n := range []int64{1, 10, 100, 1000, 4096} {
			want, err := MeasureConforming(f, a, b, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3, 7} {
				got, err := MeasureConformingParallel(f, a, b, n, workers)
				if err != nil {
					t.Fatalf("⟨%d,%d⟩ n=%d workers=%d: %v", a, b, n, workers, err)
				}
				if got != want {
					t.Fatalf("⟨%d,%d⟩ n=%d workers=%d: parallel %d, serial %d",
						a, b, n, workers, got, want)
				}
			}
		}
	}
}

// TestCurveParallelMatchesSerial checks the sweep helper.
func TestCurveParallelMatchesSerial(t *testing.T) {
	ns := []int64{4, 16, 64, 256, 1024}
	want, err := Curve(core.Diagonal{}, ns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CurveParallel(core.Diagonal{}, ns, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if got[i] != want[i] {
			t.Fatalf("CurveParallel[%d] = %d, serial %d", i, got[i], want[i])
		}
	}
}

// slowPF is a stub mapping whose Encode sleeps, making timeouts
// deterministic to provoke. Once done closes it stops sleeping, so the
// points a worker still scans before its next context poll cost nothing
// and a test measures the poll, not the sleeps.
type slowPF struct {
	d    time.Duration
	done <-chan struct{}
}

func (slowPF) Name() string { return "slow-stub" }

func (p slowPF) Encode(x, y int64) (int64, error) {
	select {
	case <-p.done:
	default:
		time.Sleep(p.d)
	}
	return (x+y-2)*(x+y-1)/2 + x, nil // Cantor-style: injective enough
}

func (slowPF) Decode(z int64) (int64, int64, error) { return 1, z, nil }

// TestEngineCancellation: a pre-canceled context fails immediately; a
// deadline on a slow mapping stops the scan early with DeadlineExceeded.
func TestEngineCancellation(t *testing.T) {
	e := &Engine{Workers: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Measure(ctx, core.Diagonal{}, 4096); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	// n = 4096 at 200µs per encode would take ~minutes serially; the
	// deadline must cut it off within the poll interval.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, _, err := e.Measure(ctx2, slowPF{d: 200 * time.Microsecond, done: ctx2.Done()}, 4096)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline honored after %v, want prompt stop", elapsed)
	}
}

// TestEngineErrorPropagation: the first Encode error cancels the scan and
// surfaces, exactly as in the serial path.
func TestEngineErrorPropagation(t *testing.T) {
	e := &Engine{Workers: 4}
	_, _, err := e.Measure(context.Background(), core.RowMajor{Width: 2}, 4096)
	if err == nil {
		t.Fatal("partial mapping should surface the worker error")
	}
	if !errors.Is(err, core.ErrDomain) {
		t.Errorf("err = %v, want wrapped core.ErrDomain", err)
	}
	if _, _, err := e.Measure(context.Background(), core.Diagonal{}, 0); err == nil {
		t.Error("n = 0 should fail")
	}
	if _, err := e.MeasureConforming(context.Background(), core.Diagonal{}, 0, 1, 10); err == nil {
		t.Error("MeasureConforming domain error expected")
	}
}

// TestEngineMetrics: a wired engine reports exactly D(n) scanned points
// (the stripes tile the region), one measurement, and one latency
// observation per dispatched stripe.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewEngineMetrics(reg)
	e := &Engine{Workers: 4, Metrics: m}
	const n = 512
	if _, _, err := e.Measure(context.Background(), core.SquareShell{}, n); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Points.Value(), RegionSize(n); got != want {
		t.Errorf("points scanned = %d, want D(%d) = %d", got, n, want)
	}
	if got := m.Measurements.Value(); got != 1 {
		t.Errorf("measurements = %d, want 1", got)
	}
	stripes := m.Stripes.Value()
	if stripes < 1 || stripes > 4*stripesPerWorker {
		t.Errorf("stripes = %d, want within [1, %d]", stripes, 4*stripesPerWorker)
	}
	if got := m.StripeSeconds.Count(); got != stripes {
		t.Errorf("stripe latency observations = %d, want %d", got, stripes)
	}
	// A nil-metrics engine and a nil-registry wiring are both no-ops.
	if nm := NewEngineMetrics(nil); nm.Points != nil || nm.StripeSeconds != nil {
		t.Error("NewEngineMetrics(nil) should return nil metrics")
	}
	if _, _, err := (&Engine{}).Measure(context.Background(), core.SquareShell{}, 64); err != nil {
		t.Errorf("uninstrumented engine: %v", err)
	}
}

// TestHyperbolaStripes: the stripes tile [1, n] exactly, ascending, for
// all shapes of n vs stripe count, and their point counts sum to D(n).
func TestHyperbolaStripes(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 16, 100, 1000, 4096} {
		for _, k := range []int{1, 2, 3, 8, 64, 5000} {
			st := hyperbolaStripes(n, k)
			if len(st) == 0 {
				t.Fatalf("n=%d k=%d: no stripes", n, k)
			}
			if int64(len(st)) > n || len(st) > k {
				t.Fatalf("n=%d k=%d: %d stripes", n, k, len(st))
			}
			next := int64(1)
			var points int64
			for _, s := range st {
				if s.lo != next || s.hi < s.lo || s.hi > n {
					t.Fatalf("n=%d k=%d: bad stripe %+v (expected lo=%d)", n, k, s, next)
				}
				for x := s.lo; x <= s.hi; x++ {
					points += n / x
				}
				next = s.hi + 1
			}
			if next != n+1 {
				t.Fatalf("n=%d k=%d: stripes end at %d, want %d", n, k, next-1, n)
			}
			if want := RegionSize(n); points != want {
				t.Fatalf("n=%d k=%d: stripes hold %d points, want D(n) = %d", n, k, points, want)
			}
		}
	}
}

// TestHyperbolaStripesBalance: away from the inherently heavy first rows,
// the count-balanced partition keeps every stripe within a small factor of
// the ideal D(n)/k share.
func TestHyperbolaStripesBalance(t *testing.T) {
	const n, k = 1 << 14, 8
	st := hyperbolaStripes(n, k)
	ideal := RegionSize(n) / k
	for i, s := range st {
		var points int64
		for x := s.lo; x <= s.hi; x++ {
			points += n / x
		}
		// The stripe containing row 1 cannot go below row 1's n points;
		// all others must sit near the ideal share.
		limit := 2*ideal + n
		if points > limit {
			t.Errorf("stripe %d (%+v) holds %d points, ideal %d", i, s, points, ideal)
		}
	}
}

// TestRectStripes: same tiling contract for the uniform-width partition.
func TestRectStripes(t *testing.T) {
	for _, rows := range []int64{1, 2, 5, 64, 1000} {
		for _, k := range []int{1, 3, 64, 2000} {
			st := rectStripes(rows, k)
			next := int64(1)
			for _, s := range st {
				if s.lo != next || s.hi < s.lo || s.hi > rows {
					t.Fatalf("rows=%d k=%d: bad stripe %+v", rows, k, s)
				}
				next = s.hi + 1
			}
			if next != rows+1 {
				t.Fatalf("rows=%d k=%d: stripes end at %d", rows, k, next-1)
			}
		}
	}
}
