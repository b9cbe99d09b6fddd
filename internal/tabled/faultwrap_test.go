package tabled

import (
	"errors"
	"testing"
	"time"

	"pairfn/internal/core"
)

func TestParseFaults(t *testing.T) {
	if fc, err := ParseFaults(""); fc != nil || err != nil {
		t.Fatalf("empty spec: %+v, %v; want nil, nil", fc, err)
	}
	fc, err := ParseFaults("seed=7,errrate=0.05,latency=2ms,tornat=8192,syncerr=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := Faults{Seed: 7, ErrRate: 0.05, Latency: 2 * time.Millisecond, TornWriteAt: 8192, SyncErrRate: 0.01}
	if *fc != want {
		t.Fatalf("parsed %+v, want %+v", *fc, want)
	}
	// Seed defaults to 1 when the spec doesn't set it.
	fc, err = ParseFaults("errrate=1")
	if err != nil || fc.Seed != 1 {
		t.Fatalf("default seed: %+v, %v", fc, err)
	}
	for _, bad := range []string{"errrate", "bogus=1", "errrate=x", "latency=5", "seed=1.5"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultBackendDeterministic: the same seed must produce the same fault
// schedule over the same operation sequence — that is what makes a chaos
// failure reproducible.
func TestFaultBackendDeterministic(t *testing.T) {
	schedule := func() []bool {
		b, err := NewSharded[string](core.SquareShell{}, 2, slabStore, 8, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFaultInjector(&Faults{Seed: 42, ErrRate: 0.5}).WrapBackend(b)
		outcomes := make([]bool, 0, 64)
		for i := int64(1); i <= 64; i++ {
			err := fb.Set((i-1)%8+1, (i-1)/8+1, "v")
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("op %d: unexpected real error %v", i, err)
			}
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := schedule(), schedule()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("errrate=0.5 injected %d/%d faults; schedule is degenerate", injected, len(a))
	}
}

// TestFaultBackendBatchOps: injected batch failures must fill every slot of
// the result, matching the Backend batch contracts.
func TestFaultBackendBatchOps(t *testing.T) {
	b, err := NewSharded[string](core.SquareShell{}, 2, slabStore, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFaultInjector(&Faults{Seed: 3, ErrRate: 1}).WrapBackend(b)

	cells := []Cell[string]{{X: 1, Y: 1, V: "a"}, {X: 2, Y: 2, V: "b"}}
	errs := setBatch(fb, cells)
	for i, e := range errs {
		if !errors.Is(e, ErrInjected) {
			t.Fatalf("cell %d: %v, want injected", i, e)
		}
	}
	res := getBatch(fb, []Pos{{X: 1, Y: 1}, {X: 2, Y: 2}})
	for i, r := range res {
		if !errors.Is(r.Err, ErrInjected) {
			t.Fatalf("key %d: %v, want injected", i, r.Err)
		}
	}
	if _, _, err := fb.Get(1, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get: %v, want injected", err)
	}
	if err := fb.Resize(16, 16); !errors.Is(err, ErrInjected) {
		t.Fatalf("Resize: %v, want injected", err)
	}
	// Pass-throughs never fault.
	if r, c := fb.Dims(); r != 8 || c != 8 {
		t.Fatalf("Dims = %d×%d", r, c)
	}
	// Nothing reached the real backend.
	if _, ok, _ := b.Get(1, 1); ok {
		t.Fatal("injected SetBatchInto leaked through to the backend")
	}
}

// TestFaultWrapDisabledIsIdentity: nil faults must return the wrapped value
// itself — no decorator, no indirection, no allocation.
func TestFaultWrapDisabledIsIdentity(t *testing.T) {
	b, err := NewSharded[string](core.SquareShell{}, 2, slabStore, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fi *FaultInjector // = NewFaultInjector(nil)
	if got := fi.WrapBackend(b); got != Backend[string](b) {
		t.Fatal("WrapBackend on nil injector is not identity")
	}
	if NewFaultInjector(nil) != nil {
		t.Fatal("NewFaultInjector(nil) != nil")
	}
}

// BenchmarkFaultWrapDisabled pins the zero-cost claim: Set through the
// identity-wrapped backend must match the bare backend (the wrapper IS the
// bare backend when faults are off).
func BenchmarkFaultWrapDisabled(bch *testing.B) {
	b, err := NewSharded[string](core.SquareShell{}, 4, slabStore, 256, 256, nil)
	if err != nil {
		bch.Fatal(err)
	}
	wrapped := (*FaultInjector)(nil).WrapBackend(b)
	bch.ReportAllocs()
	bch.ResetTimer()
	for i := 0; i < bch.N; i++ {
		x := int64(i%256) + 1
		if err := wrapped.Set(x, x, "v"); err != nil {
			bch.Fatal(err)
		}
	}
}
