package tabled

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
)

// TestSparseBoxCostsCells grows a 3×3 table holding 9 cells to
// 2^20×2^20, a box square-shell still encodes, and checks that each save
// and shrink costs the cells, not the box: each must finish within 100
// ms (a walk of the box takes hours) and give back the same cells. It
// covers Sharded.SaveAt with a LoadShardedMeta round trip, the Sharded
// shrink, and Array.Save, Array.Range and Array.Resize's shrink. Both
// shrinks go to 3×2, so they also discard the third column's 3 cells.
func TestSparseBoxCostsCells(t *testing.T) {
	const big = 1 << 20
	f := core.SquareShell{}
	s, err := NewSharded[string](f, 16, slabStore, 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := extarray.New[string](f, extarray.NewSlabStore(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Pos]string{}
	for x := int64(1); x <= 3; x++ {
		for y := int64(1); y <= 3; y++ {
			v := fmt.Sprint(x, ":", y)
			if err := s.Set(x, y, v); err != nil {
				t.Fatal(err)
			}
			if err := a.Set(x, y, v); err != nil {
				t.Fatal(err)
			}
			want[Pos{X: x, Y: y}] = v
		}
	}
	if err := s.Resize(big, big); err != nil {
		t.Fatal(err)
	}
	if err := a.Resize(big, big); err != nil {
		t.Fatal(err)
	}
	timed := func(name string, fn func() error) {
		t.Helper()
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s of %d cells in a %d×%d box took %v", name, len(want), big, big, d)
		}
	}
	// same checks that tb holds exactly the cells of want in a rows×cols box.
	same := func(name string, tb extarray.Table[string], n int, rows, cols int64) {
		t.Helper()
		if r, c := tb.Dims(); r != rows || c != cols || n != len(want) {
			t.Fatalf("%s: %d×%d with %d cells, want %d×%d with %d", name, r, c, n, rows, cols, len(want))
		}
		for p, v := range want {
			if got, ok, err := tb.Get(p.X, p.Y); err != nil || !ok || got != v {
				t.Fatalf("%s: Get(%d, %d) = %q, %v, %v; want %q", name, p.X, p.Y, got, ok, err, v)
			}
		}
	}

	var buf bytes.Buffer
	var l *Sharded[string]
	timed("Sharded.SaveAt + LoadShardedMeta", func() (err error) {
		if err := s.SaveAt(&buf, 0, 0); err != nil {
			return err
		}
		l, _, _, err = LoadShardedMeta[string](bytes.NewReader(buf.Bytes()), f, 4, slabStore, nil)
		return err
	})
	same("loaded Sharded", l, l.Len(), big, big)
	buf.Reset()
	var la *extarray.Array[string]
	timed("Array.Save + Load", func() (err error) {
		if err := a.Save(&buf); err != nil {
			return err
		}
		la, err = extarray.Load[string](bytes.NewReader(buf.Bytes()), f, extarray.NewSlabStore())
		return err
	})
	same("loaded Array", la, la.Len(), big, big)
	got := map[Pos]string{}
	timed("Array.Range", func() error {
		return a.Range(func(x, y int64, v string) bool { got[Pos{X: x, Y: y}] = v; return true })
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Array.Range visited %v, want %v", got, want)
	}

	for x := int64(1); x <= 3; x++ {
		delete(want, Pos{X: x, Y: 3})
	}
	timed("Sharded shrink", func() error { return s.Resize(3, 2) })
	same("shrunk Sharded", s, s.Len(), 3, 2)
	timed("Array shrink", func() error { return a.Resize(3, 2) })
	same("shrunk Array", a, a.Len(), 3, 2)
	if st, ast := s.Stats(), a.Stats(); st != ast || st.Moves != 3 {
		t.Fatalf("stats %+v, Array %+v; want equal with 3 moves", st, ast)
	}
}

// BenchmarkShardedReshape times the reshapes and saves whose cost should
// follow the stored cells, not the logical box, on a 16-shard
// square-shell SlabStore table: dropping the last row of a full 256×256
// table (the discarded region is smaller than the table), and shrinking
// and saving a 3×3 table's 9 cells after a grow to 4096×4096 (the box is
// 1.9 million times the cells). Only the shrink or the save is timed;
// refilling the dropped row and regrowing the box are not.
func BenchmarkShardedReshape(b *testing.B) {
	fill := func(b *testing.B, rows, cols int64) *Sharded[string] {
		s, err := NewSharded[string](core.SquareShell{}, 16, slabStore, rows, cols, nil)
		if err != nil {
			b.Fatal(err)
		}
		for x := int64(1); x <= rows; x++ {
			for y := int64(1); y <= cols; y++ {
				if err := s.Set(x, y, fmt.Sprintf("%015d:%016d", x, y)); err != nil {
					b.Fatal(err)
				}
			}
		}
		return s
	}
	resize := func(b *testing.B, s *Sharded[string], rows, cols int64) {
		if err := s.Resize(rows, cols); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("shrink/dense-256x256-1row", func(b *testing.B) {
		s := fill(b, 256, 256)
		row := make([]Cell[string], 256)
		for y := range row {
			row[y] = Cell[string]{X: 256, Y: int64(y) + 1, V: fmt.Sprintf("%015d:%016d", 256, y+1)}
		}
		errs := make([]error, len(row))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resize(b, s, 256, 256)
			s.SetBatchInto(row, errs)
			b.StartTimer()
			resize(b, s, 255, 256)
		}
	})
	b.Run("shrink/sparse-9cells-4096sq", func(b *testing.B) {
		s := fill(b, 3, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resize(b, s, 4096, 4096)
			b.StartTimer()
			resize(b, s, 3, 3)
		}
	})
	b.Run("save/sparse-9cells-4096sq", func(b *testing.B) {
		s := fill(b, 3, 3)
		resize(b, s, 4096, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.SaveAt(io.Discard, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
