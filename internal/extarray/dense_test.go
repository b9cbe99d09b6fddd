package extarray

import (
	"testing"

	"pairfn/internal/core"
	"pairfn/internal/numtheory"
)

func TestDenseStoreParity(t *testing.T) {
	d := NewDenseStore[int64]()
	m := NewMapStore[int64]()
	ops := []struct{ addr, val int64 }{
		{1, 10}, {100, 20}, {50, 30}, {100, 21}, {7, 40},
	}
	for _, op := range ops {
		d.Set(op.addr, op.val)
		m.Set(op.addr, op.val)
	}
	for _, addr := range []int64{1, 2, 7, 50, 100, 101} {
		dv, dok := d.Get(addr)
		mv, mok := m.Get(addr)
		if dv != mv || dok != mok {
			t.Errorf("addr %d: dense (%d,%v) map (%d,%v)", addr, dv, dok, mv, mok)
		}
	}
	if d.Len() != m.Len() || d.MaxAddr() != m.MaxAddr() {
		t.Errorf("Len/MaxAddr mismatch: %d/%d vs %d/%d", d.Len(), d.MaxAddr(), m.Len(), m.MaxAddr())
	}
	scanMatches[int64](t, d, m)
	d.Delete(50)
	m.Delete(50)
	scanMatches[int64](t, d, m)
	if _, ok := d.Get(50); ok {
		t.Error("delete failed")
	}
	if d.Len() != m.Len() {
		t.Error("Len after delete mismatch")
	}
	d.Delete(9999) // no-op
	d.Delete(0)    // no-op
	if d.Slots() < 100 {
		t.Errorf("Slots = %d, expected ≥ 100", d.Slots())
	}
}

// TestDenseStoreMakesSpreadLiteral is E17/E9's memory story in one test:
// holding the same 1×n table, the dense slot bill equals each mapping's
// realized spread — Θ(n log n) for ℋ, Θ(n²) for 𝒟.
func TestDenseStoreMakesSpreadLiteral(t *testing.T) {
	const n = 512
	dh := NewDenseStore[int64]()
	dd := NewDenseStore[int64]()
	ah, err := New[int64](core.Hyperbolic{}, dh, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := New[int64](core.Diagonal{}, dd, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for y := int64(1); y <= n; y++ {
		if err := ah.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
		if err := ad.Set(1, y, y); err != nil {
			t.Fatal(err)
		}
	}
	// ℋ's bill is within 2× of D(n) (geometric growth slack);
	// 𝒟's is within 2× of (n²+n)/2.
	hBill, dBill := dh.Slots(), dd.Slots()
	if want := numtheory.DivisorSummatory(n); hBill < want || hBill > 2*want {
		t.Errorf("hyperbolic slot bill %d vs D(n) = %d", hBill, want)
	}
	if want := int64(n*n+n) / 2; dBill < want || dBill > 2*want {
		t.Errorf("diagonal slot bill %d vs (n²+n)/2 = %d", dBill, want)
	}
	if hBill*8 > dBill {
		t.Errorf("hyperbolic bill %d should be ≪ diagonal bill %d", hBill, dBill)
	}
}
