package extarray

import (
	"math/bits"
	"slices"
)

// A Store is an address-indexed backing memory for array elements.
// Addresses are the 1-based values produced by a storage mapping.
type Store[T any] interface {
	// Get returns the element at addr and whether it is present.
	Get(addr int64) (T, bool)
	// Set stores v at addr.
	Set(addr int64, v T)
	// Delete removes the element at addr (no-op if absent).
	Delete(addr int64)
	// Len returns the number of stored elements.
	Len() int
	// MaxAddr returns the largest address ever occupied — the footprint.
	MaxAddr() int64
	// Scan calls fn once for every stored element, in ascending address
	// order. fn must not modify the store. Saves, Range and sparse shrinks
	// iterate through it, so they cost the stored elements, not the
	// logical box.
	Scan(fn func(addr int64, v T))
}

// MapStore is a hash-map-backed Store: O(1) expected access, memory
// proportional to the number of stored elements regardless of spread.
// This is the §3-aside trade-off in its simplest form (see package
// hashstore for the measured variants).
type MapStore[T any] struct {
	m   map[int64]T
	max int64
}

// NewMapStore returns an empty MapStore.
func NewMapStore[T any]() *MapStore[T] {
	return &MapStore[T]{m: make(map[int64]T)}
}

// Get implements Store.
func (s *MapStore[T]) Get(addr int64) (T, bool) {
	v, ok := s.m[addr]
	return v, ok
}

// Set implements Store.
func (s *MapStore[T]) Set(addr int64, v T) {
	s.m[addr] = v
	if addr > s.max {
		s.max = addr
	}
}

// Delete implements Store.
func (s *MapStore[T]) Delete(addr int64) { delete(s.m, addr) }

// Len implements Store.
func (s *MapStore[T]) Len() int { return len(s.m) }

// MaxAddr implements Store.
func (s *MapStore[T]) MaxAddr() int64 { return s.max }

// Scan implements Store by sorting the keys: it is the test reference
// the other stores' scans are checked against.
func (s *MapStore[T]) Scan(fn func(addr int64, v T)) {
	addrs := make([]int64, 0, len(s.m))
	for a := range s.m {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		fn(a, s.m[a])
	}
}

// pageBits sizes PagedStore pages at 2^pageBits elements.
const pageBits = 10

// densePages bounds PagedStore's dense directory: pages 0 through
// densePages-1 are found by slice index, so a directory never exceeds
// 512 KiB of pointers. Pages past it, and negative pages, live in a map.
const densePages = 1 << 16

// A page is one PagedStore allocation: the used bitmap and the values of
// 2^pageBits consecutive addresses. One object per page keeps a page's
// presence bits next to its values and costs one allocation header.
type page[T any] struct {
	used [1 << pageBits / 64]uint64
	vals [1 << pageBits]T
}

// PagedStore is a paged-slice-backed Store: contiguous pages of 2^10
// elements allocated on demand. Unlike MapStore its memory is proportional
// to the *address range touched* (rounded up to pages), so it makes the
// spread of the storage mapping physically visible: a mapping with spread
// S(n) allocates ≈ S(n)/2^10 pages to hold n elements. This is the memory
// model under which §3.2's compactness race matters.
//
// A page holds its used bitmap and its values in one object. Pages below
// densePages are reached through a dense directory indexed by page
// number, grown on demand; the rest (addresses from 2^26 up, as 𝒟 and ℋ
// reach on wide tables, and negative addresses) through a map made on
// first use. Pages are never freed, so Delete leaves Pages unchanged.
type PagedStore[T any] struct {
	pageDir[page[T]]
	n   int
	max int64
}

// NewPagedStore returns an empty PagedStore.
func NewPagedStore[T any]() *PagedStore[T] { return &PagedStore[T]{} }

// split returns the page number of addr, its offset in the page, and the
// offset's word and bit in the used bitmap.
func split(addr int64) (p, off, word int64, bit uint64) {
	off = addr & (1<<pageBits - 1)
	return addr >> pageBits, off, off >> 6, 1 << (off & 63)
}

// A pageDir finds the pages of a paged store by page number: pages 0
// through densePages-1 by index in a dense directory grown on demand, the
// rest, and negative pages, in a map made on first use. Pages are never
// freed. PagedStore and SlabStore share it, so they count the same pages.
type pageDir[P any] struct {
	dir   []*P
	far   map[int64]*P
	pages int
}

// page returns page p, or nil if it was never allocated.
func (d *pageDir[P]) page(p int64) *P {
	if uint64(p) < uint64(len(d.dir)) {
		return d.dir[p]
	}
	if uint64(p) < densePages {
		return nil
	}
	return d.far[p]
}

// alloc allocates page p, which must be absent.
func (d *pageDir[P]) alloc(p int64) *P {
	pg := new(P)
	d.pages++
	if uint64(p) >= densePages {
		if d.far == nil {
			d.far = make(map[int64]*P)
		}
		d.far[p] = pg
		return pg
	}
	if p >= int64(len(d.dir)) {
		d.dir = append(d.dir, make([]*P, p+1-int64(len(d.dir)))...)
	}
	d.dir[p] = pg
	return pg
}

// scan calls fn for every allocated page in ascending page order:
// negative far pages, then the dense directory, then the far pages past
// it. Only the far map's keys are sorted, so a scan costs O(pages).
func (d *pageDir[P]) scan(fn func(p int64, pg *P)) {
	far := make([]int64, 0, len(d.far))
	for p := range d.far {
		far = append(far, p)
	}
	slices.Sort(far)
	i := 0
	for ; i < len(far) && far[i] < 0; i++ {
		fn(far[i], d.far[far[i]])
	}
	for p, pg := range d.dir {
		if pg != nil {
			fn(int64(p), pg)
		}
	}
	for ; i < len(far); i++ {
		fn(far[i], d.far[far[i]])
	}
}

// slots calls fn for every set bit of a page's used bitmap in ascending
// order, with the slot's offset in the page and its rank among the
// present slots.
func slots(used *[1 << pageBits / 64]uint64, fn func(off, rank int)) {
	rank := 0
	for w, word := range used {
		for ; word != 0; word &= word - 1 {
			fn(w<<6|bits.TrailingZeros64(word), rank)
			rank++
		}
	}
}

// Get implements Store.
func (s *PagedStore[T]) Get(addr int64) (T, bool) {
	p, off, w, bit := split(addr)
	if pg := s.page(p); pg != nil && pg.used[w]&bit != 0 {
		return pg.vals[off], true
	}
	var zero T
	return zero, false
}

// Set implements Store.
func (s *PagedStore[T]) Set(addr int64, v T) {
	p, off, w, bit := split(addr)
	pg := s.page(p)
	if pg == nil {
		pg = s.alloc(p)
	}
	if pg.used[w]&bit == 0 {
		pg.used[w] |= bit
		s.n++
	}
	pg.vals[off] = v
	if addr > s.max {
		s.max = addr
	}
}

// Delete implements Store.
func (s *PagedStore[T]) Delete(addr int64) {
	p, off, w, bit := split(addr)
	if pg := s.page(p); pg != nil && pg.used[w]&bit != 0 {
		var zero T
		pg.vals[off] = zero
		pg.used[w] &^= bit
		s.n--
	}
}

// Len implements Store.
func (s *PagedStore[T]) Len() int { return s.n }

// MaxAddr implements Store.
func (s *PagedStore[T]) MaxAddr() int64 { return s.max }

// Scan implements Store: the page directory in order, then each page's
// used bitmap, so a scan costs O(pages + elements).
func (s *PagedStore[T]) Scan(fn func(addr int64, v T)) {
	s.scan(func(p int64, pg *page[T]) {
		slots(&pg.used, func(off, _ int) { fn(p<<pageBits|int64(off), pg.vals[off]) })
	})
}

// Pages returns the number of pages currently allocated — the physical
// memory proxy that exposes spread.
func (s *PagedStore[T]) Pages() int { return s.pages }
