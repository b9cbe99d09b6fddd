package extarray

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pairfn/internal/core"
)

// TestModelEquivalence drives random operation sequences against a
// PF-backed Array, the naive row-major baseline, and a plain-map reference
// model simultaneously; all three must agree on every observable at every
// step. This is the strongest correctness evidence for the reshape
// semantics: any divergence in bounds handling, discard-on-shrink or data
// placement shows up within a few hundred operations.
func TestModelEquivalence(t *testing.T) {
	mappingsUnderTest := []core.StorageMapping{
		core.SquareShell{},
		core.Hyperbolic{},
		core.MustAspect(2, 1),
		core.MustDovetail(core.MustAspect(1, 1), core.MustAspect(1, 2)),
	}
	for _, m := range mappingsUnderTest {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(123))
			pf := NewMapBacked[int64](m, 3, 3)
			naive := NewNaiveRowMajor[int64](3, 3)
			type key struct{ x, y int64 }
			model := map[key]int64{}
			rows, cols := int64(3), int64(3)

			for op := 0; op < 600; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // Set in bounds
					if rows == 0 || cols == 0 {
						continue
					}
					x, y := rng.Int63n(rows)+1, rng.Int63n(cols)+1
					v := rng.Int63()
					if err := pf.Set(x, y, v); err != nil {
						t.Fatalf("op %d: pf.Set: %v", op, err)
					}
					if err := naive.Set(x, y, v); err != nil {
						t.Fatalf("op %d: naive.Set: %v", op, err)
					}
					model[key{x, y}] = v
				case 4, 5, 6: // Get (possibly out of bounds)
					x, y := rng.Int63n(rows+2)+1, rng.Int63n(cols+2)+1
					pv, pok, perr := pf.Get(x, y)
					nv, nok, nerr := naive.Get(x, y)
					if (perr == nil) != (nerr == nil) {
						t.Fatalf("op %d: Get(%d,%d) err mismatch: %v vs %v", op, x, y, perr, nerr)
					}
					if perr != nil {
						if x >= 1 && y >= 1 && x <= rows && y <= cols {
							t.Fatalf("op %d: in-bounds Get(%d,%d) errored: %v", op, x, y, perr)
						}
						continue
					}
					mv, mok := model[key{x, y}]
					if pok != mok || nok != mok || (mok && (pv != mv || nv != mv)) {
						t.Fatalf("op %d: Get(%d,%d): pf (%d,%v) naive (%d,%v) model (%d,%v)",
							op, x, y, pv, pok, nv, nok, mv, mok)
					}
				case 7: // grow
					dr, dc := rng.Int63n(3), rng.Int63n(3)
					rows, cols = rows+dr, cols+dc
					if err := pf.Resize(rows, cols); err != nil {
						t.Fatalf("op %d: pf grow: %v", op, err)
					}
					if err := naive.Resize(rows, cols); err != nil {
						t.Fatalf("op %d: naive grow: %v", op, err)
					}
				case 8: // shrink
					nr, nc := rows, cols
					if rows > 0 {
						nr = rows - rng.Int63n(rows+1)
					}
					if cols > 0 {
						nc = cols - rng.Int63n(cols+1)
					}
					rows, cols = nr, nc
					if err := pf.Resize(rows, cols); err != nil {
						t.Fatalf("op %d: pf shrink: %v", op, err)
					}
					if err := naive.Resize(rows, cols); err != nil {
						t.Fatalf("op %d: naive shrink: %v", op, err)
					}
					for k := range model {
						if k.x > rows || k.y > cols {
							delete(model, k)
						}
					}
				case 9: // full sweep compare
					for k, mv := range model {
						pv, pok, err := pf.Get(k.x, k.y)
						if err != nil || !pok || pv != mv {
							t.Fatalf("op %d: sweep pf(%d,%d) = (%d,%v,%v), want %d",
								op, k.x, k.y, pv, pok, err, mv)
						}
					}
					if int(int64(len(model))) != pf.Len() {
						t.Fatalf("op %d: pf.Len %d, model %d", op, pf.Len(), len(model))
					}
				}
			}
			// Final invariant: PF growth never moves anything; only
			// shrinks did (counted against discards).
			if pfStats := pf.Stats(); pfStats.Moves > pfStats.Reshapes*64 {
				t.Logf("stats: %+v", pfStats) // informational only
			}
		})
	}
}

// TestPagedStoreModel is a seeded quick-check of the paged stores against
// MapStore over addresses in page 0, the last dense page, the first far
// page, near 2^62 and at or below 0, with a hot range in page 0 that
// fills past slabSparseMax and sees many overwrites: both must agree on
// Get, Len and MaxAddr after every op, and Pages must count every page
// ever set (Delete frees none). SlabStore's values mix empty ones, short
// ones of many lengths and ones longer than an arena chunk, and each seed
// must switch a page to its direct table and compact the arena.
func TestPagedStoreModel(t *testing.T) {
	t.Run("PagedStore", func(t *testing.T) {
		storeModel(t, func() pagedTestStore[int64] { return NewPagedStore[int64]() },
			func(rng *rand.Rand) int64 { return rng.Int63() }, nil,
			func(t *testing.T, s pagedTestStore[int64]) {
				ps := s.(*PagedStore[int64])
				if len(ps.dir) > densePages || len(ps.far) == 0 {
					t.Fatalf("directory %d pages, far map %d pages", len(ps.dir), len(ps.far))
				}
			})
	})
	t.Run("SlabStore", func(t *testing.T) {
		var lastDead int64
		compactions := 0
		storeModel(t, func() pagedTestStore[string] { lastDead = 0; return NewSlabStore() }, slabValue,
			func(s pagedTestStore[string]) {
				// Dead bytes fall only when the arena compacts.
				if d := s.(*SlabStore).dead; d < lastDead {
					compactions++
				} else {
					lastDead = d
				}
			},
			func(t *testing.T, s pagedTestStore[string]) {
				ss := s.(*SlabStore)
				if len(ss.dir) > densePages || len(ss.far) == 0 {
					t.Fatalf("directory %d pages, far map %d pages", len(ss.dir), len(ss.far))
				}
				direct, sparse := 0, 0
				for _, pg := range ss.dir {
					switch {
					case pg == nil:
					case pg.direct():
						direct++
					default:
						sparse++
					}
				}
				if direct == 0 || sparse == 0 || compactions == 0 {
					t.Fatalf("%d direct and %d sparse pages, %d compactions; want some of each",
						direct, sparse, compactions)
				}
				compactions = 0
			})
	})
}

// slabValue draws a SlabStore test value: empty, short with a random
// length, or longer than an arena chunk.
func slabValue(rng *rand.Rand) string {
	body := strconv.FormatInt(rng.Int63(), 36)
	switch k := rng.Intn(64); {
	case k == 0:
		n := slabChunk + 1 + rng.Intn(slabChunk)
		return strings.Repeat(body, n/len(body)+1)[:n]
	case k < 8:
		return ""
	default:
		n := rng.Intn(80)
		return strings.Repeat(body, n/len(body)+1)[:n]
	}
}

// pagedTestStore is a Store that counts its pages.
type pagedTestStore[T any] interface {
	Store[T]
	Pages() int
}

// storeModel runs the quick-check behind TestPagedStoreModel on stores
// from newStore with values from value. It hands the store to observe,
// when not nil, after every op, and to check after each seed's run.
func storeModel[T comparable](t *testing.T, newStore func() pagedTestStore[T], value func(*rand.Rand) T,
	observe func(pagedTestStore[T]), check func(*testing.T, pagedTestStore[T])) {
	bases := []int64{
		0,                               // page 0
		(densePages - 1) << pageBits,    // last dense page
		densePages << pageBits,          // first far page
		1<<62 - 1<<pageBits,             // near 2^62
		math.MaxInt64 - 2<<pageBits + 1, // top of the address space
		-2 << pageBits,                  // negative pages
		math.MinInt64,                   // most negative page
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps, ms := newStore(), NewMapStore[T]()
		pages := map[int64]bool{}
		addr := func() int64 {
			if rng.Intn(4) != 0 {
				return rng.Int63n(256) // the hot range
			}
			return bases[rng.Intn(len(bases))] + rng.Int63n(2<<pageBits)
		}
		for op := 0; op < 6000; op++ {
			a := addr()
			switch rng.Intn(4) {
			case 0, 1: // Set, often a re-Set
				v := value(rng)
				ps.Set(a, v)
				ms.Set(a, v)
				pages[a>>pageBits] = true
			case 2:
				ps.Delete(a)
				ms.Delete(a)
			case 3:
				pv, pok := ps.Get(a)
				mv, mok := ms.Get(a)
				if pv != mv || pok != mok {
					t.Fatalf("seed %d op %d: Get(%d) = (%v, %v), map (%v, %v)", seed, op, a, pv, pok, mv, mok)
				}
			}
			if ps.Len() != ms.Len() || ps.MaxAddr() != ms.MaxAddr() || ps.Pages() != len(pages) {
				t.Fatalf("seed %d op %d: Len/MaxAddr/Pages %d/%d/%d, want %d/%d/%d", seed, op,
					ps.Len(), ps.MaxAddr(), ps.Pages(), ms.Len(), ms.MaxAddr(), len(pages))
			}
			if observe != nil {
				observe(ps)
			}
			if op%1000 == 999 {
				scanMatches[T](t, ps, ms)
			}
		}
		for a, mv := range ms.m {
			if pv, ok := ps.Get(a); !ok || pv != mv {
				t.Fatalf("seed %d: sweep Get(%d) = (%v, %v), want %v", seed, a, pv, ok, mv)
			}
		}
		scanMatches[T](t, ps, ms)
		check(t, ps)
	}
}

// scanMatches checks that s.Scan visits exactly the elements of the
// MapStore model ms, in the same strictly ascending address order.
func scanMatches[T comparable](t *testing.T, s Store[T], ms *MapStore[T]) {
	t.Helper()
	type elem struct {
		addr int64
		v    T
	}
	var got, want []elem
	s.Scan(func(a int64, v T) { got = append(got, elem{a, v}) })
	ms.Scan(func(a int64, v T) { want = append(want, elem{a, v}) })
	if len(want) != ms.Len() {
		t.Fatalf("model scan visited %d elements, holds %d", len(want), ms.Len())
	}
	for i := range want {
		if i > 0 && want[i].addr <= want[i-1].addr {
			t.Fatalf("model scan out of order: %d after %d", want[i].addr, want[i-1].addr)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Scan visited %d elements, model %d (or in another order, or other values)", len(got), len(want))
	}
}
