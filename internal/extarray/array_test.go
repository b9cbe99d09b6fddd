package extarray

import (
	"errors"
	"testing"

	"pairfn/internal/core"
)

// fill writes a recognizable value into every cell of the table.
func fill(t *testing.T, tab Table[int64], rows, cols int64) {
	t.Helper()
	for x := int64(1); x <= rows; x++ {
		for y := int64(1); y <= cols; y++ {
			if err := tab.Set(x, y, x*1000+y); err != nil {
				t.Fatalf("Set(%d, %d): %v", x, y, err)
			}
		}
	}
}

// verify checks every cell holds the fill value.
func verify(t *testing.T, tab Table[int64], rows, cols int64) {
	t.Helper()
	for x := int64(1); x <= rows; x++ {
		for y := int64(1); y <= cols; y++ {
			v, ok, err := tab.Get(x, y)
			if err != nil {
				t.Fatalf("Get(%d, %d): %v", x, y, err)
			}
			if !ok || v != x*1000+y {
				t.Fatalf("Get(%d, %d) = %d, %v; want %d", x, y, v, ok, x*1000+y)
			}
		}
	}
}

// mappings under test for the PF-backed array.
func mappings() []core.StorageMapping {
	return []core.StorageMapping{
		core.Diagonal{},
		core.SquareShell{},
		core.MustAspect(1, 1),
		core.MustAspect(2, 3),
		core.Hyperbolic{},
		core.MustDovetail(core.MustAspect(1, 1), core.MustAspect(1, 2), core.MustAspect(2, 1)),
	}
}

// TestReshapePreservesData grows and shrinks in all directions and checks
// surviving data is intact and moves stay at the shrink-discard minimum.
func TestReshapePreservesData(t *testing.T) {
	for _, m := range mappings() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			a := NewMapBacked[int64](m, 4, 4)
			fill(t, a, 4, 4)
			if err := a.GrowRows(3); err != nil {
				t.Fatal(err)
			}
			if err := a.GrowCols(2); err != nil {
				t.Fatal(err)
			}
			verify(t, a, 4, 4) // old data untouched
			fill(t, a, 7, 6)   // fill the grown region too
			verify(t, a, 7, 6)
			if got := a.Stats().Moves; got != 0 {
				t.Fatalf("growth moved %d elements, want 0", got)
			}
			if err := a.ShrinkRows(2); err != nil {
				t.Fatal(err)
			}
			if err := a.ShrinkCols(3); err != nil {
				t.Fatal(err)
			}
			verify(t, a, 5, 3)
			// Shrink discarded exactly the cells outside 5×3 that were set:
			// 7·6 − 5·3 = 27.
			if got := a.Stats().Moves; got != 27 {
				t.Fatalf("shrink discarded %d, want 27", got)
			}
			if a.Len() != 15 {
				t.Fatalf("Len = %d, want 15", a.Len())
			}
		})
	}
}

// TestReshapeCosts is experiment E17's unit form: growing an array n times
// by one column costs zero moves under a PF mapping and Θ(n²) total moves
// under the naive row-major scheme.
func TestReshapeCosts(t *testing.T) {
	const n = 32
	pf := NewMapBacked[int64](core.SquareShell{}, n, 1)
	naive := NewNaiveRowMajor[int64](n, 1)
	fill(t, pf, n, 1)
	fill(t, naive, n, 1)
	for c := int64(1); c < n; c++ {
		if err := pf.GrowCols(1); err != nil {
			t.Fatal(err)
		}
		if err := naive.GrowCols(1); err != nil {
			t.Fatal(err)
		}
		// Populate the new column so the next remap has to carry it.
		for x := int64(1); x <= n; x++ {
			if err := pf.Set(x, c+1, x*1000+c+1); err != nil {
				t.Fatal(err)
			}
			if err := naive.Set(x, c+1, x*1000+c+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	verify(t, pf, n, n)
	verify(t, naive, n, n)
	if got := pf.Stats().Moves; got != 0 {
		t.Errorf("PF array moved %d elements, want 0", got)
	}
	// Naive: reshape k moves n·k elements, total n·Σk = n·(n−1)n/2 ∈ Θ(n³)
	// for n column-adds of an n-row array — per element of final size n²,
	// that is Θ(n) moves each, the Ω(n²)-work-for-O(n)-changes of §3.
	want := n * (n - 1) * n / 2
	if got := naive.Stats().Moves; got != int64(want) {
		t.Errorf("naive moves = %d, want %d", got, want)
	}
}

// TestFootprintOrdering: for thin (1×n) tables the hyperbolic mapping's
// footprint beats the diagonal's, which beats nothing — the §3.2 spread
// race realized in storage.
func TestFootprintOrdering(t *testing.T) {
	const n = 256
	h := NewMapBacked[int64](core.Hyperbolic{}, 1, n)
	d := NewMapBacked[int64](core.Diagonal{}, 1, n)
	for y := int64(1); y <= n; y++ {
		if err := h.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
		if err := d.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
	}
	fh, fd := h.Stats().Footprint, d.Stats().Footprint
	if fh >= fd {
		t.Errorf("hyperbolic footprint %d should beat diagonal %d on 1×%d", fh, fd, n)
	}
	if fd != (n*n+n)/2 {
		t.Errorf("diagonal footprint = %d, want (n²+n)/2 = %d", fd, (n*n+n)/2)
	}
}

// TestBoundsAndErrors exercises bounds checks on both implementations.
func TestBoundsAndErrors(t *testing.T) {
	tables := []Table[int64]{
		NewMapBacked[int64](core.Diagonal{}, 3, 3),
		NewNaiveRowMajor[int64](3, 3),
	}
	for _, tab := range tables {
		if err := tab.Set(4, 1, 1); !errors.Is(err, ErrBounds) {
			t.Errorf("Set(4, 1): %v", err)
		}
		if err := tab.Set(1, 0, 1); !errors.Is(err, ErrBounds) {
			t.Errorf("Set(1, 0): %v", err)
		}
		if _, _, err := tab.Get(0, 1); !errors.Is(err, ErrBounds) {
			t.Errorf("Get(0, 1): %v", err)
		}
		if err := tab.Resize(-1, 2); err == nil {
			t.Error("Resize(-1, 2) should fail")
		}
		// Unset cell reads as absent, not error.
		if _, ok, err := tab.Get(2, 2); ok || err != nil {
			t.Errorf("Get of unset cell: ok=%v err=%v", ok, err)
		}
	}
	if _, err := New[int64](core.Diagonal{}, NewMapStore[int64](), -1, 0); err == nil {
		t.Error("New with negative dims should fail")
	}
}

// TestNaiveRowMajorSemantics verifies the baseline preserves data across
// width changes (it moves everything, but correctly).
func TestNaiveRowMajorSemantics(t *testing.T) {
	a := NewNaiveRowMajor[int64](3, 4)
	fill(t, a, 3, 4)
	if err := a.GrowCols(2); err != nil {
		t.Fatal(err)
	}
	verify(t, a, 3, 4)
	if err := a.GrowRows(2); err != nil {
		t.Fatal(err)
	}
	verify(t, a, 3, 4)
	if err := a.ShrinkCols(3); err != nil {
		t.Fatal(err)
	}
	verify(t, a, 3, 3)
	if err := a.ShrinkRows(4); err != nil {
		t.Fatal(err)
	}
	verify(t, a, 1, 3)
	if r, c := a.Dims(); r != 1 || c != 3 {
		t.Fatalf("Dims = %d×%d", r, c)
	}
	if a.Stats().Reshapes != 4 {
		t.Errorf("Reshapes = %d, want 4", a.Stats().Reshapes)
	}
}

// TestPagedStoreParity checks PagedStore behaves like MapStore and exposes
// page counts.
func TestPagedStoreParity(t *testing.T) {
	ps := NewPagedStore[int64]()
	ms := NewMapStore[int64]()
	ops := []struct {
		addr int64
		val  int64
	}{{1, 10}, {1024, 20}, {1025, 30}, {999999, 40}, {1, 11}}
	for _, op := range ops {
		ps.Set(op.addr, op.val)
		ms.Set(op.addr, op.val)
	}
	for _, addr := range []int64{1, 2, 1024, 1025, 999999} {
		pv, pok := ps.Get(addr)
		mv, mok := ms.Get(addr)
		if pv != mv || pok != mok {
			t.Errorf("addr %d: paged (%d, %v) vs map (%d, %v)", addr, pv, pok, mv, mok)
		}
	}
	if ps.Len() != ms.Len() {
		t.Errorf("Len: %d vs %d", ps.Len(), ms.Len())
	}
	if ps.MaxAddr() != 999999 || ms.MaxAddr() != 999999 {
		t.Error("MaxAddr mismatch")
	}
	ps.Delete(1024)
	ms.Delete(1024)
	if _, ok := ps.Get(1024); ok {
		t.Error("paged delete failed")
	}
	if ps.Len() != ms.Len() {
		t.Errorf("Len after delete: %d vs %d", ps.Len(), ms.Len())
	}
	// Deleting an absent address is a no-op.
	ps.Delete(5555)
	if ps.Pages() < 3 {
		t.Errorf("expected ≥ 3 pages, got %d", ps.Pages())
	}
}

// TestPagedStoreExposesSpread demonstrates the physical effect of spread:
// storing a 1×n row costs ~1 page under 𝒜_{1,n-ish} mappings but many pages
// under 𝒟, whose addresses scatter quadratically.
func TestPagedStoreExposesSpread(t *testing.T) {
	const n = 512
	diag := NewPagedStore[int64]()
	hyp := NewPagedStore[int64]()
	ad, _ := New[int64](core.Diagonal{}, diag, 1, n)
	ah, _ := New[int64](core.Hyperbolic{}, hyp, 1, n)
	for y := int64(1); y <= n; y++ {
		if err := ad.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
		if err := ah.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
	}
	if diag.Pages() <= hyp.Pages() {
		t.Errorf("diagonal pages %d should exceed hyperbolic pages %d",
			diag.Pages(), hyp.Pages())
	}
	// Golden counts: DESIGN §6 and EXPERIMENTS quote page counts, so a
	// store change must not move them.
	if diag.Pages() != 129 || hyp.Pages() != 4 {
		t.Errorf("pages: diagonal %d, hyperbolic %d; want 129 and 4", diag.Pages(), hyp.Pages())
	}
}

// countingPF counts the Encode and Decode calls made through it. It
// exposes only core.PF's methods, so core.DecodeBatch decodes through the
// counted Decode.
type countingPF struct {
	core.PF
	enc, dec int
}

func (c *countingPF) Encode(x, y int64) (int64, error) { c.enc++; return c.PF.Encode(x, y) }

func (c *countingPF) Decode(z int64) (int64, int64, error) { c.dec++; return c.PF.Decode(z) }

// TestShrinkBranches takes Shrink down each of its walks and checks the
// result against a map model: a shrink whose discarded region holds at
// most Len() positions encodes exactly that region and decodes nothing;
// a larger one decodes each stored address once and encodes nothing.
func TestShrinkBranches(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		rows, cols, step       int64
		toRows, toCols, encode int64
		scan                   bool
	}{
		{"dense/one-row", 16, 16, 1, 15, 16, 16, false},
		{"dense/rows-down-cols-up", 16, 16, 1, 8, 20, 8 * 16, false},
		{"sparse", 64, 64, 9, 40, 45, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pf := &countingPF{PF: core.SquareShell{}}
			a, err := New[int64](pf, NewPagedStore[int64](), tc.rows, tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			model := map[[2]int64]int64{}
			for x := int64(1); x <= tc.rows; x += tc.step {
				for y := int64(1); y <= tc.cols; y += tc.step {
					if err := a.Set(x, y, x<<32|y); err != nil {
						t.Fatal(err)
					}
					model[[2]int64{x, y}] = x<<32 | y
				}
			}
			stored := len(model)
			pf.enc, pf.dec = 0, 0
			if err := a.Resize(tc.toRows, tc.toCols); err != nil {
				t.Fatal(err)
			}
			wantDec := 0
			if tc.scan {
				wantDec = stored
			}
			if pf.enc != int(tc.encode) || pf.dec != wantDec {
				t.Fatalf("shrink of %d cells made %d encodes and %d decodes, want %d and %d",
					stored, pf.enc, pf.dec, tc.encode, wantDec)
			}
			for p := range model {
				if p[0] > tc.toRows || p[1] > tc.toCols {
					delete(model, p)
				}
			}
			if a.Len() != len(model) || a.Stats().Moves != int64(stored-len(model)) {
				t.Fatalf("Len %d, Moves %d; want %d, %d", a.Len(), a.Stats().Moves, len(model), stored-len(model))
			}
			for p, v := range model {
				if got, ok, err := a.Get(p[0], p[1]); err != nil || !ok || got != v {
					t.Fatalf("Get(%d, %d) = %d, %v, %v; want %d", p[0], p[1], got, ok, err, v)
				}
			}
		})
	}
}
