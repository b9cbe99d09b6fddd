package extarray

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pairfn/internal/core"
)

// ErrBounds reports access outside the array's current logical bounds.
var ErrBounds = errors.New("extarray: position outside current bounds")

// ErrShrink reports an attempt to shrink an array below 0×0.
var ErrShrink = errors.New("extarray: cannot shrink below zero")

// Stats records the cost of a table's lifetime of operations.
type Stats struct {
	// Moves counts elements physically relocated to a different address by
	// reshaping. PF-mapped arrays never move elements; the naive row-major
	// scheme moves the whole array on each width change.
	Moves int64
	// Reshapes counts grow/shrink operations.
	Reshapes int64
	// Footprint is the largest address ever occupied (the realized spread).
	Footprint int64
}

// A Table is a dynamically reshapable two-dimensional array with 1-based
// positions (x = row, y = column).
type Table[T any] interface {
	// Dims returns the current logical dimensions (rows, cols).
	Dims() (rows, cols int64)
	// Get returns the element at (x, y); ok is false if the position was
	// never set. An error means the position is outside current bounds.
	Get(x, y int64) (v T, ok bool, err error)
	// Set stores v at (x, y).
	Set(x, y int64, v T) error
	// Resize sets the logical dimensions, growing and/or shrinking in one
	// step. Shrinking discards elements outside the new bounds.
	Resize(rows, cols int64) error
	// Stats returns the accumulated cost counters.
	Stats() Stats
}

// Array is a Table whose positions are laid out by a pairing function (or
// any injective storage mapping): reshaping never remaps surviving
// positions, so Moves stays 0 for pure growth and equals only the number of
// discarded elements for shrinks.
type Array[T any] struct {
	f     core.StorageMapping
	store Store[T]
	rows  int64
	cols  int64
	stats Stats
}

// New returns an empty rows×cols Array laid out by f and backed by store.
func New[T any](f core.StorageMapping, store Store[T], rows, cols int64) (*Array[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("extarray: dimensions %d×%d invalid", rows, cols)
	}
	return &Array[T]{f: f, store: store, rows: rows, cols: cols}, nil
}

// NewMapBacked returns a rows×cols Array over f with a fresh MapStore.
func NewMapBacked[T any](f core.StorageMapping, rows, cols int64) *Array[T] {
	a, err := New[T](f, NewMapStore[T](), rows, cols)
	if err != nil {
		panic(err)
	}
	return a
}

// Mapping returns the storage mapping laying out this array.
func (a *Array[T]) Mapping() core.StorageMapping { return a.f }

// Dims implements Table.
func (a *Array[T]) Dims() (int64, int64) { return a.rows, a.cols }

func (a *Array[T]) check(x, y int64) error {
	if x < 1 || y < 1 || x > a.rows || y > a.cols {
		return fmt.Errorf("%w: (%d, %d) in %d×%d", ErrBounds, x, y, a.rows, a.cols)
	}
	return nil
}

// Get implements Table.
func (a *Array[T]) Get(x, y int64) (T, bool, error) {
	var zero T
	if err := a.check(x, y); err != nil {
		return zero, false, err
	}
	addr, err := a.f.Encode(x, y)
	if err != nil {
		return zero, false, err
	}
	v, ok := a.store.Get(addr)
	return v, ok, nil
}

// Set implements Table.
func (a *Array[T]) Set(x, y int64, v T) error {
	if err := a.check(x, y); err != nil {
		return err
	}
	addr, err := a.f.Encode(x, y)
	if err != nil {
		return err
	}
	a.store.Set(addr, v)
	if addr > a.stats.Footprint {
		a.stats.Footprint = addr
	}
	return nil
}

// Resize implements Table. Growth moves nothing — that is the point of
// PF-based storage mappings. Shrinking deletes the elements of discarded
// rows/columns (counted as moves, since a remapping scheme would have to
// touch at least those too) and leaves every surviving element in place.
func (a *Array[T]) Resize(rows, cols int64) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("%w: to %d×%d", ErrShrink, rows, cols)
	}
	a.stats.Reshapes++
	n := a.store.Len()
	err := Shrink(a.f, a.rows, a.cols, rows, cols, n, a.store.Scan, a.store.Delete)
	a.stats.Moves += int64(n - a.store.Len())
	if err != nil {
		return err
	}
	a.rows, a.cols = rows, cols
	return nil
}

// Shrink deletes the elements that a resize of a table laid out by f
// from rows×cols to newRows×newCols discards; a resize that shrinks
// neither side deletes nothing. n is the number of stored elements, scan
// calls its fn with every stored element, in any order, and del deletes
// the element at an address if there is one. Array.Resize and
// tabled.Sharded.Resize both shrink through it and count the elements it
// deleted as moves.
//
// It takes the cheaper of two walks. When the discarded region holds at
// most n positions, it encodes each of them and deletes it, so dropping
// a row of a dense table never walks the kept box. Otherwise it collects
// the stored addresses, decodes them in ascending order with
// core.DecodeBatch (so a mapping's shell-walk reuse applies), and deletes
// those outside the new box: a sparse table shrinks at the cost of its
// elements, however large its box.
func Shrink[T any](f core.PF, rows, cols, newRows, newCols int64, n int, scan func(fn func(addr int64, v T)), del func(addr int64)) error {
	kr, kc := min(rows, newRows), min(cols, newCols) // the kept box
	if kr == rows && kc == cols {
		return nil
	}
	if top := rows - kr; within(top, cols, int64(n)) && within(kr, cols-kc, int64(n)-top*cols) {
		// The discarded rows below the kept box, then the discarded
		// columns beside it.
		for _, r := range [2][4]int64{{kr + 1, rows, 1, cols}, {1, kr, kc + 1, cols}} {
			for x := r[0]; x <= r[1]; x++ {
				for y := r[2]; y <= r[3]; y++ {
					addr, err := f.Encode(x, y)
					if err != nil {
						return err
					}
					del(addr)
				}
			}
		}
		return nil
	}
	addrs := make([]int64, 0, n)
	scan(func(addr int64, _ T) { addrs = append(addrs, addr) })
	slices.Sort(addrs)
	xs, ys, err := decode(f, addrs)
	if err != nil {
		return err
	}
	for i, addr := range addrs {
		if xs[i] > kr || ys[i] > kc {
			del(addr)
		}
	}
	return nil
}

// decode decodes stored addresses with core.DecodeBatch, failing if any
// does not decode.
func decode(f core.PF, addrs []int64) (xs, ys []int64, err error) {
	xs, ys = make([]int64, len(addrs)), make([]int64, len(addrs))
	core.DecodeBatch(f, addrs, xs, ys, func(i int, e error) {
		err = cmp.Or(err, fmt.Errorf("extarray: stored address %d: %w", addrs[i], e))
	})
	return xs, ys, err
}

// within reports whether a·b ≤ limit, for non-negative a, b and limit,
// without overflowing int64.
func within(a, b, limit int64) bool { return a == 0 || b <= limit/a }

// GrowRows adds delta rows (delta ≥ 0).
func (a *Array[T]) GrowRows(delta int64) error { return a.Resize(a.rows+delta, a.cols) }

// GrowCols adds delta columns (delta ≥ 0).
func (a *Array[T]) GrowCols(delta int64) error { return a.Resize(a.rows, a.cols+delta) }

// ShrinkRows removes delta rows.
func (a *Array[T]) ShrinkRows(delta int64) error { return a.Resize(a.rows-delta, a.cols) }

// ShrinkCols removes delta columns.
func (a *Array[T]) ShrinkCols(delta int64) error { return a.Resize(a.rows, a.cols-delta) }

// Stats implements Table.
func (a *Array[T]) Stats() Stats {
	s := a.stats
	if m := a.store.MaxAddr(); m > s.Footprint {
		s.Footprint = m
	}
	return s
}

// Len returns the number of elements currently stored.
func (a *Array[T]) Len() int { return a.store.Len() }
