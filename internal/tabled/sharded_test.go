package tabled

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/numtheory"
	"pairfn/internal/obs"
)

func newSharded(t testing.TB, f core.StorageMapping, nshards int, rows, cols int64) *Sharded[int64] {
	t.Helper()
	s, err := NewSharded[int64](f, nshards, func() extarray.Store[int64] {
		return extarray.NewPagedStore[int64]()
	}, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// setBatch runs b.SetBatchInto with a result slice of its own.
func setBatch[T any](b Backend[T], cells []Cell[T]) []error {
	errs := make([]error, len(cells))
	b.SetBatchInto(cells, errs)
	return errs
}

// getBatch runs b.GetBatchInto with a result slice of its own.
func getBatch[T any](b Backend[T], keys []Pos) []GetResult[T] {
	res := make([]GetResult[T], len(keys))
	b.GetBatchInto(keys, res)
	return res
}

// storePages sums the shard stores' page counts.
func storePages[T any](s *Sharded[T]) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].store.(interface{ Pages() int }).Pages()
	}
	return n
}

// TestShardedMatchesArray drives the same randomized op sequence through a
// Sharded table and a reference extarray.Array and demands identical
// observable state throughout — including after grows and shrinks. The
// wide 𝒟 table puts about a third of its addresses past 2^36, beyond
// every shard's dense page directory. The shards' page total must equal that of one PagedStore
// fed the same real addresses: shard-local addressing maps pages one to one.
func TestShardedMatchesArray(t *testing.T) {
	for _, tc := range []struct {
		prefix     string
		f          core.StorageMapping
		rows, cols int64
	}{
		{"", core.SquareShell{}, 16, 16},
		{"diagonal-1x2^20/", core.Diagonal{}, 1, 1 << 20},
	} {
		for _, nshards := range []int{1, 2, 4, 16, 256} {
			t.Run(fmt.Sprintf("%sshards=%d", tc.prefix, nshards), func(t *testing.T) {
				testShardedMatchesArray(t, tc.f, nshards, tc.rows, tc.cols)
			})
		}
	}
}

func testShardedMatchesArray(t *testing.T, f core.StorageMapping, nshards int, rows0, cols0 int64) {
	s := newSharded(t, f, nshards, rows0, cols0)
	ref := extarray.NewMapBacked[int64](f, rows0, cols0)
	pages := extarray.NewPagedStore[int64]()
	touched := map[Pos]bool{}
	wide := rows0*cols0 > 1<<12
	rng := rand.New(rand.NewSource(7))
	// pick draws a coordinate up to two past n; on the wide table half the
	// draws stay in the first 1024 columns so near pages are hit too.
	pick := func(n int64) int64 {
		if wide && rng.Intn(2) == 0 {
			n = min(n, 1024)
		}
		return rng.Int63n(n+2) + 1
	}
	for i := 0; i < 4000; i++ {
		rows, cols := ref.Dims()
		switch op := rng.Intn(10); {
		case op < 5: // set
			x, y := pick(rows), pick(cols)
			gotErr := s.Set(x, y, int64(i))
			wantErr := ref.Set(x, y, int64(i))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d: Set(%d,%d) err %v vs ref %v", i, x, y, gotErr, wantErr)
			}
			if gotErr == nil {
				addr, _ := f.Encode(x, y)
				pages.Set(addr, int64(i))
				touched[Pos{X: x, Y: y}] = true
			}
		case op < 9: // get
			x, y := pick(rows), pick(cols)
			v, ok, gotErr := s.Get(x, y)
			rv, rok, wantErr := ref.Get(x, y)
			if v != rv || ok != rok || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d: Get(%d,%d) = (%d,%v,%v) vs ref (%d,%v,%v)",
					i, x, y, v, ok, gotErr, rv, rok, wantErr)
			}
		default: // resize: mostly grow, sometimes shrink; the wide table keeps its one row
			nr := max(rows+rng.Int63n(5)-1, 1)
			nc := max(cols+rng.Int63n(5)-1, 1)
			if wide {
				nr = rows
			}
			if err := s.Resize(nr, nc); err != nil {
				t.Fatal(err)
			}
			if err := ref.Resize(nr, nc); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sweep: every in-bounds cell of a small table, every position ever
	// set on the wide one, agrees; aggregate stats agree.
	rows, cols := ref.Dims()
	if sr, sc := s.Dims(); sr != rows || sc != cols {
		t.Fatalf("dims (%d,%d) vs ref (%d,%d)", sr, sc, rows, cols)
	}
	check := func(x, y int64) {
		v, ok, err := s.Get(x, y)
		rv, rok, rerr := ref.Get(x, y)
		if v != rv || ok != rok || (err == nil) != (rerr == nil) {
			t.Fatalf("sweep (%d,%d): (%d,%v,%v) vs ref (%d,%v,%v)", x, y, v, ok, err, rv, rok, rerr)
		}
	}
	if wide {
		for p := range touched {
			check(p.X, p.Y)
		}
	} else {
		for x := int64(1); x <= rows; x++ {
			for y := int64(1); y <= cols; y++ {
				check(x, y)
			}
		}
	}
	if s.Len() != ref.Len() {
		t.Fatalf("Len %d vs ref %d", s.Len(), ref.Len())
	}
	if st, rst := s.Stats(), ref.Stats(); st != rst {
		t.Fatalf("stats %+v vs ref %+v", st, rst)
	}
	if got, want := storePages(s), pages.Pages(); got != want {
		t.Fatalf("shard pages %d, one PagedStore over the same addresses %d", got, want)
	}
}

// TestShardedPageGolden pins the page counts and footprints that DESIGN
// §6 and the benchmark's node-skinny and node-read tables report, measured
// with every store keyed by real addresses: shard-local addressing must
// not move them, and neither may the served store. The zero-size values
// keep the 8×8192 table's 8265 PagedStore pages to their 128-byte bitmaps.
func TestShardedPageGolden(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int64
		pages      int
		footprint  int64
		perCell    int64
	}{
		{8, 8192, 8265, 1 << 26, 1024},
		{256, 256, 65, 1 << 16, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d/PagedStore", tc.rows, tc.cols), func(t *testing.T) {
			s, err := NewSharded[struct{}](core.SquareShell{}, 16, func() extarray.Store[struct{}] {
				return extarray.NewPagedStore[struct{}]()
			}, tc.rows, tc.cols, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPageGolden(t, s, func(x, y int64) struct{} { return struct{}{} },
				tc.pages, tc.footprint, tc.perCell)
		})
		t.Run(fmt.Sprintf("%dx%d/SlabStore", tc.rows, tc.cols), func(t *testing.T) {
			s, err := NewSharded[string](core.SquareShell{}, 16, slabStore, tc.rows, tc.cols, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPageGolden(t, s, func(x, y int64) string { return fmt.Sprint(x, ":", y) },
				tc.pages, tc.footprint, tc.perCell)
		})
	}
}

// checkPageGolden fills every cell of s with value(x, y), reads each back,
// and checks the page count, footprint and footprint per cell.
func checkPageGolden[T comparable](t *testing.T, s *Sharded[T], value func(x, y int64) T, pages int, footprint, perCell int64) {
	t.Helper()
	rows, cols := s.Dims()
	cells := make([]Cell[T], 0, rows*cols)
	for x := int64(1); x <= rows; x++ {
		for y := int64(1); y <= cols; y++ {
			cells = append(cells, Cell[T]{X: x, Y: y, V: value(x, y)})
		}
	}
	keys := make([]Pos, len(cells))
	for i, c := range cells {
		keys[i] = Pos{X: c.X, Y: c.Y}
	}
	for _, err := range setBatch[T](s, cells) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range getBatch[T](s, keys) {
		if !r.OK || r.Err != nil || r.V != cells[i].V {
			t.Fatalf("cell %+v reads back %+v", keys[i], r)
		}
	}
	fp := s.Stats().Footprint
	if got := storePages(s); got != pages || fp != footprint || fp/int64(s.Len()) != perCell {
		t.Errorf("%d pages, footprint %d, %d per cell; want %d, %d, %d",
			got, fp, fp/int64(s.Len()), pages, footprint, perCell)
	}
}

// TestShardedBatchSemantics checks per-op error reporting and input-order
// results for the batched calls.
func TestShardedBatchSemantics(t *testing.T) {
	s := newSharded(t, core.Diagonal{}, 8, 4, 4)
	errs := setBatch(s, []Cell[int64]{
		{X: 1, Y: 1, V: 11},
		{X: 9, Y: 1, V: 91}, // out of bounds
		{X: 0, Y: 2, V: 2},  // domain
		{X: 4, Y: 4, V: 44},
	})
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid cells errored: %v", errs)
	}
	if !errors.Is(errs[1], extarray.ErrBounds) || !errors.Is(errs[2], extarray.ErrBounds) {
		t.Fatalf("invalid cells: %v, %v", errs[1], errs[2])
	}
	res := getBatch(s, []Pos{{X: 4, Y: 4}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 5, Y: 5}})
	if res[0].V != 44 || !res[0].OK || res[1].V != 11 || !res[1].OK {
		t.Fatalf("batch get order wrong: %+v", res)
	}
	if res[2].OK || res[2].Err != nil {
		t.Fatalf("unset cell: %+v", res[2])
	}
	if !errors.Is(res[3].Err, extarray.ErrBounds) {
		t.Fatalf("out-of-bounds get: %+v", res[3])
	}
}

// TestShardedOverflowSurfaces pins the overflow contract: a Set whose
// address computation overflows int64 reports the mapping's overflow error, it does
// not wrap into some other shard.
func TestShardedOverflowSurfaces(t *testing.T) {
	s := newSharded(t, core.Diagonal{}, 4, 1<<62, 1<<62)
	err := s.Set(1<<61, 1<<61, 1)
	if !errors.Is(err, numtheory.ErrOverflow) {
		t.Fatalf("Set near 2^61: err = %v, want ErrOverflow", err)
	}
	errs := setBatch(s, []Cell[int64]{{X: 1 << 61, Y: 1 << 61, V: 1}, {X: 1, Y: 1, V: 7}})
	if !errors.Is(errs[0], numtheory.ErrOverflow) || errs[1] != nil {
		t.Fatalf("batch overflow isolation: %v", errs)
	}
	if v, ok, err := s.Get(1, 1); err != nil || !ok || v != 7 {
		t.Fatalf("cell after overflow neighbor: %d %v %v", v, ok, err)
	}
}

// TestShardedConcurrent hammers one table from many goroutines — point and
// batched ops plus reshapes and snapshots — under the race detector, and
// verifies a grow-then-fill invariant: once a Set succeeds, the value is
// observable unless shrunk away.
func TestShardedConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewSharded[int64](core.SquareShell{}, 8, func() extarray.Store[int64] {
		return extarray.NewPagedStore[int64]()
	}, 64, 64, NewMetrics(reg, 8))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				switch {
				case i%97 == 96 && w == 0: // reshaper: grow a row, shrink it back
					if err := s.Resize(65, 64); err != nil {
						t.Error(err)
					}
					if err := s.Resize(64, 64); err != nil {
						t.Error(err)
					}
				case i%50 == 49 && w == 1:
					_ = s.Stats()
					_ = s.Len()
				case i%2 == 0:
					cells := make([]Cell[int64], 16)
					for k := range cells {
						cells[k] = Cell[int64]{X: rng.Int63n(64) + 1, Y: rng.Int63n(64) + 1, V: int64(i)}
					}
					for k, err := range setBatch(s, cells) {
						if err != nil {
							t.Errorf("SetBatchInto[%d]: %v", k, err)
						}
					}
				default:
					keys := make([]Pos, 16)
					for k := range keys {
						keys[k] = Pos{X: rng.Int63n(64) + 1, Y: rng.Int63n(64) + 1}
					}
					for k, gr := range getBatch(s, keys) {
						if gr.Err != nil {
							t.Errorf("GetBatchInto[%d]: %v", k, gr.Err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Per-shard counters saw every cell op.
	var total int64
	for i := 0; i < s.NumShards(); i++ {
		total += reg.Counter("tabled_shard_ops_total", obs.L("shard", fmt.Sprint(i))).Value()
	}
	if total == 0 {
		t.Error("no shard ops recorded")
	}
}

// BenchmarkShardedBatch times 128-cell get and set batches on a 16-shard
// square-shell table preloaded with 32-byte values, on the benchmark's
// two shapes: 256×256 (node-read, 65 pages) and 8×8192 (node-skinny, 8265
// pages), over each store: SlabStore, which the service runs on, and
// PagedStore[string]. Its ns/cell reproduces
// tabled.sharded.{get,set}_ns_per_cell without the service around it.
func BenchmarkShardedBatch(b *testing.B) {
	const batch, batches = 128, 256
	for _, st := range []struct {
		name     string
		newStore func() extarray.Store[string]
	}{
		{"slab", slabStore},
		{"paged", func() extarray.Store[string] { return extarray.NewPagedStore[string]() }},
	} {
		for _, shape := range []struct{ rows, cols int64 }{{256, 256}, {8, 8192}} {
			s, err := NewSharded[string](core.SquareShell{}, 16, st.newStore, shape.rows, shape.cols, nil)
			if err != nil {
				b.Fatal(err)
			}
			for x := int64(1); x <= shape.rows; x++ {
				for y := int64(1); y <= shape.cols; y++ {
					if err := s.Set(x, y, fmt.Sprintf("%015d:%016d", x, y)); err != nil {
						b.Fatal(err)
					}
				}
			}
			rng := rand.New(rand.NewSource(1))
			cells := make([]Cell[string], batch*batches)
			keys := make([]Pos, len(cells))
			for i := range cells {
				x, y := rng.Int63n(shape.rows)+1, rng.Int63n(shape.cols)+1
				cells[i] = Cell[string]{X: x, Y: y, V: fmt.Sprintf("%015d-%016d", x, y)}
				keys[i] = Pos{X: x, Y: y}
			}
			errs := make([]error, batch)
			res := make([]GetResult[string], batch)
			perCell := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/cell")
			}
			name := fmt.Sprintf("%s/%dx%d", st.name, shape.rows, shape.cols)
			b.Run(name+"/get", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % batches * batch
					s.GetBatchInto(keys[k:k+batch], res)
				}
				perCell(b)
			})
			b.Run(name+"/set", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % batches * batch
					s.SetBatchInto(cells[k:k+batch], errs)
				}
				perCell(b)
			})
		}
	}
}
