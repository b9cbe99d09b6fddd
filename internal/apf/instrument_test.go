package apf

import (
	"math"
	"testing"

	"pairfn/internal/obs"
)

func TestInstrumentedAgreesWithRaw(t *testing.T) {
	raw := NewTHash()
	reg := obs.NewRegistry()
	wrapped := Instrument(raw, reg)
	if _, ok := wrapped.(*Instrumented); !ok {
		t.Fatalf("Instrument returned %T", wrapped)
	}
	for x := int64(1); x <= 40; x++ {
		for y := int64(1); y <= 40; y++ {
			a, errA := raw.Encode(x, y)
			b, errB := wrapped.Encode(x, y)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("Encode(%d,%d): raw %d,%v wrapped %d,%v", x, y, a, errA, b, errB)
			}
			if errA != nil {
				continue
			}
			xa, ya, _ := raw.Decode(a)
			xb, yb, err := wrapped.Decode(b)
			if xa != xb || ya != yb || err != nil {
				t.Fatalf("Decode(%d) disagrees", a)
			}
		}
	}
	// Base/Stride/Group/Name pass through.
	if wrapped.Name() != raw.Name() {
		t.Errorf("Name %q ≠ %q", wrapped.Name(), raw.Name())
	}
	b1, _ := raw.Base(17)
	b2, err := wrapped.Base(17)
	if b1 != b2 || err != nil {
		t.Errorf("Base passthrough: %d vs %d (%v)", b1, b2, err)
	}
}

func TestInstrumentCounts(t *testing.T) {
	reg := obs.NewRegistry()
	f := Instrument(NewTHash(), reg)
	for i := int64(1); i <= 10; i++ {
		z, err := f.Encode(i, i)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Decode(z); err != nil {
			t.Fatal(err)
		}
	}
	f.Encode(0, 1) // ErrDomain
	f.Decode(-5)   // ErrDomain
	name := obs.L("apf", "T#")
	if got := reg.Counter("apf_encode_total", name).Value(); got != 11 {
		t.Errorf("encodes = %d, want 11", got)
	}
	if got := reg.Counter("apf_decode_total", name).Value(); got != 11 {
		t.Errorf("decodes = %d, want 11", got)
	}
	if got := reg.Counter("apf_errors_total", name).Value(); got != 2 {
		t.Errorf("errors = %d, want 2", got)
	}
}

func TestInstrumentNilRegistryIsIdentity(t *testing.T) {
	raw := NewTHash()
	if got := Instrument(raw, nil); got != APF(raw) {
		t.Errorf("Instrument(f, nil) = %T, want the raw APF", got)
	}
}

// BenchmarkInstrumentedEncode measures the instrumentation overhead on the
// apf.Encode hot path: the "instrumented" sub-benchmark's ns/op minus the
// "raw" sub-benchmark's ns/op is the cost of the two atomic counters, and
// the observability budget requires it below 20 ns/op (measured ≈ 5 ns on
// the reference container). Encode arguments cycle through 64 rows so the
// group-table lookup behaves as in the WBC coordinator, not as a
// single-row cache hit.
func BenchmarkInstrumentedEncode(b *testing.B) {
	raw := NewTHash()
	reg := obs.NewRegistry()
	wrapped := Instrument(raw, reg)
	bench := func(f APF) func(*testing.B) {
		return func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				z, err := f.Encode(int64(i&63)+1, int64(i&1023)+1)
				if err != nil {
					b.Fatal(err)
				}
				sink += z
			}
			_ = sink
		}
	}
	b.Run("raw", bench(raw))
	b.Run("instrumented", bench(wrapped))
}

// TestInstrumentationOverheadBudget machine-checks the < 20 ns/op budget
// with testing.Benchmark. Skipped in -short mode and under the race
// detector (whose instrumentation adds ~100 ns to every atomic op,
// dwarfing the budget); the benchmark above remains the authoritative
// measurement. Raw and instrumented trials alternate, and each side keeps
// its fastest, so a busy phase of a loaded host (other test packages
// running beside this one) slows trials of both sides rather than all of
// one side.
func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; run without -short")
	}
	if raceEnabled {
		t.Skip("timing assertion; race-detector instrumentation dominates the budget")
	}
	raw := NewTHash()
	wrapped := Instrument(raw, obs.NewRegistry())
	trial := func(f APF) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				z, _ := f.Encode(int64(i&63)+1, int64(i&1023)+1)
				sink += z
			}
			_ = sink
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	rawNS, wrappedNS := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		rawNS = min(rawNS, trial(raw))
		wrappedNS = min(wrappedNS, trial(wrapped))
	}
	overhead := wrappedNS - rawNS
	t.Logf("raw %.1f ns/op, instrumented %.1f ns/op, overhead %.1f ns/op", rawNS, wrappedNS, overhead)
	if overhead >= 20 {
		t.Errorf("instrumentation overhead %.1f ns/op exceeds the 20 ns budget", overhead)
	}
}
