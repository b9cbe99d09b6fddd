package extarray

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pairfn/internal/core"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	a := NewMapBacked[int64](core.Hyperbolic{}, 6, 9)
	for x := int64(1); x <= 6; x++ {
		for y := int64(1); y <= 9; y += 2 { // leave holes
			if err := a.Set(x, y, x*100+y); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.GrowRows(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load[int64](&buf, core.Hyperbolic{}, NewMapStore[int64]())
	if err != nil {
		t.Fatal(err)
	}
	br, bc := b.Dims()
	if br != 8 || bc != 9 {
		t.Fatalf("loaded dims %d×%d", br, bc)
	}
	if b.Len() != a.Len() {
		t.Fatalf("loaded %d elements, want %d", b.Len(), a.Len())
	}
	for x := int64(1); x <= 6; x++ {
		for y := int64(1); y <= 9; y++ {
			av, aok, _ := a.Get(x, y)
			bv, bok, _ := b.Get(x, y)
			if av != bv || aok != bok {
				t.Fatalf("(%d, %d): loaded (%d, %v), want (%d, %v)", x, y, bv, bok, av, aok)
			}
		}
	}
	if b.Stats().Reshapes != a.Stats().Reshapes {
		t.Error("stats not preserved")
	}
}

func TestLoadRejectsWrongMapping(t *testing.T) {
	a := NewMapBacked[string](core.Diagonal{}, 3, 3)
	if err := a.Set(2, 2, "v"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Load[string](&buf, core.SquareShell{}, NewMapStore[string]())
	if err == nil || !strings.Contains(err.Error(), "laid out by") {
		t.Errorf("wrong-mapping load: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load[int64](strings.NewReader("not a gob"), core.Diagonal{}, NewMapStore[int64]()); err == nil {
		t.Error("garbage input should fail")
	}
}

// TestLoadCorruptSnapshot is the boot-safety regression: every single-bit
// flip and every truncation of a snapshot must be refused by Load — none
// may panic, and none may load, not even a flip inside a value that would
// still decode as gob (the frame checksum catches it first).
func TestLoadCorruptSnapshot(t *testing.T) {
	a := NewMapBacked[string](core.SquareShell{}, 16, 16)
	for x := int64(1); x <= 16; x++ {
		for y := int64(1); y <= 16; y++ {
			if err := a.Set(x, y, strings.Repeat("v", int(x+y))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	load := func(b []byte) error {
		_, err := Load[string](bytes.NewReader(b), core.SquareShell{}, NewMapStore[string]())
		return err
	}
	if err := load(good); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	// The flips are split over the CPUs: under -race each decode costs
	// microseconds, and there are 8 per byte.
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flipped := append([]byte(nil), good...)
			for i := w; i < len(flipped); i += workers {
				for bit := 0; bit < 8; bit++ {
					flipped[i] ^= 1 << bit
					if load(flipped) == nil {
						t.Errorf("flip byte %d bit %d: corrupt snapshot loaded", i, bit)
						return
					}
					flipped[i] ^= 1 << bit
				}
			}
		}()
	}
	wg.Wait()
	for cut := 0; cut < len(good); cut++ {
		if load(good[:cut]) == nil {
			t.Fatalf("truncate at %d of %d: partial snapshot loaded", cut, len(good))
		}
	}
}

func TestRange(t *testing.T) {
	a := NewMapBacked[int64](core.SquareShell{}, 4, 4)
	want := map[[2]int64]int64{}
	for x := int64(1); x <= 4; x++ {
		for y := int64(1); y <= 4; y++ {
			if (x+y)%2 == 0 {
				if err := a.Set(x, y, x*10+y); err != nil {
					t.Fatal(err)
				}
				want[[2]int64{x, y}] = x*10 + y
			}
		}
	}
	got := map[[2]int64]int64{}
	var order [][2]int64
	if err := a.Range(func(x, y int64, v int64) bool {
		got[[2]int64{x, y}] = v
		order = append(order, [2]int64{x, y})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ranged over %d elements, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%v: got %d want %d", k, got[k], v)
		}
	}
	// Row-major order.
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("not row-major at %d: %v then %v", i, a, b)
		}
	}
	// Early stop.
	count := 0
	if err := a.Range(func(x, y int64, v int64) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}
