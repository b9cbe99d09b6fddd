package extarray

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// SlabStore geometry. The sizes are properties of the layout, not tuning
// knobs: a page's sparse refs cost 12 bytes each against 12 KiB for a
// direct table, so a page switches once it holds an eighth of its slots.
const (
	// slabChunk is the size of one arena chunk. A value longer than a
	// chunk gets a chunk of its own.
	slabChunk = 32 << 10
	// slabSparseMax is the number of present slots a page keeps as a
	// rank-ordered ref list. One more switches the page, once and for
	// good, to a direct table of 2^pageBits refs: rank-order inserts on a
	// dense page would otherwise memmove on every new slot.
	slabSparseMax = 128
	// slabCompactFloor is the dead-byte count below which the arena never
	// compacts, so a small store does not re-copy itself on every few
	// overwrites.
	slabCompactFloor = 4 * slabChunk
)

// A slabRef locates one value in a SlabStore's arena: n bytes at off in
// chunk. The empty value is the zero ref.
type slabRef struct {
	chunk, off, n uint32
}

// A slabPage covers 2^pageBits addresses, as a PagedStore page does. The
// used bitmap says which slots are present. While the page is sparse,
// refs holds one ref per present slot in slot order, and rank[w] counts
// the present slots in the words before w, so a slot's ref sits at
// rank[w] plus the set bits below it in used[w]. A direct page
// (len(refs) == 2^pageBits) indexes refs by slot and leaves rank unused.
// Neither field holds a pointer the collector follows into values: refs
// is one pointer-free array per page.
type slabPage struct {
	used [1 << pageBits / 64]uint64
	rank [1 << pageBits / 64]uint16
	refs []slabRef
}

// direct reports whether the page indexes refs by slot.
func (pg *slabPage) direct() bool { return len(pg.refs) == 1<<pageBits }

// slot returns the index in refs of the ref for offset off (word w, bit
// bit). The slot need not be present: for an absent one it is where the
// ref would be inserted.
func (pg *slabPage) slot(off, w int64, bit uint64) int {
	if pg.direct() {
		return int(off)
	}
	return int(pg.rank[w]) + bits.OnesCount64(pg.used[w]&(bit-1))
}

// insert stores r at the absent slot off.
func (pg *slabPage) insert(off, w int64, bit uint64, r slabRef) {
	if !pg.direct() && len(pg.refs) == slabSparseMax {
		d := make([]slabRef, 1<<pageBits)
		slots(&pg.used, func(off, rank int) { d[off] = pg.refs[rank] })
		pg.refs = d
	}
	if pg.direct() {
		pg.used[w] |= bit
		pg.refs[off] = r
		return
	}
	i := pg.slot(off, w, bit)
	pg.used[w] |= bit
	for k := w + 1; k < int64(len(pg.rank)); k++ {
		pg.rank[k]++
	}
	pg.refs = append(pg.refs, slabRef{})
	copy(pg.refs[i+1:], pg.refs[i:])
	pg.refs[i] = r
}

// remove clears the present slot off and returns the ref it held.
func (pg *slabPage) remove(off, w int64, bit uint64) slabRef {
	i := pg.slot(off, w, bit)
	r := pg.refs[i]
	pg.used[w] &^= bit
	if pg.direct() {
		pg.refs[off] = slabRef{}
		return r
	}
	copy(pg.refs[i:], pg.refs[i+1:])
	pg.refs = pg.refs[:len(pg.refs)-1]
	for k := w + 1; k < int64(len(pg.rank)); k++ {
		pg.rank[k]--
	}
	return r
}

// SlabStore is the Store[string] the table service runs on. It pages
// addresses exactly as PagedStore does (same 2^10-address pages, same
// pageDir, so Pages counts the same pages), but a
// page holds no strings: it holds small refs into one append-only byte
// arena per store, and Set copies each value into that arena. A page
// costs what it holds, and a filled store is a few pointer-free objects
// per page plus the arena's chunks, where a PagedStore[string] page is a
// 16 KiB pointer array and each value a heap object of its own.
//
// Set copies v, so callers may pass strings that alias buffers they will
// reuse. Get returns a string over the arena's bytes, with no copy and no
// allocation; it stays valid and unchanged for as long as it is
// referenced, because published bytes are never written again. Overwrite
// and Delete only count the old bytes as dead. Once dead bytes exceed both
// the live bytes and a floor of a few chunks, the next Set or Delete
// copies the live values into fresh chunks; strings handed out before
// keep the old chunks alive until the collector frees them. Each
// compaction copies at most as many bytes as died since the last, so its
// cost is amortized over the writes that made it necessary.
//
// Values must be shorter than 4 GiB. A SlabStore is not safe for
// concurrent use; tabled.Sharded guards each shard's store with the
// shard's lock, so a compaction runs under the shard write lock.
type SlabStore struct {
	pageDir[slabPage]
	chunks [][]byte
	open   uint32 // the chunk small values are appended to
	free   int    // bytes left in chunks[open]
	live   int64  // bytes of present values
	dead   int64  // bytes of overwritten and deleted values
	n      int
	max    int64
}

// NewSlabStore returns an empty SlabStore.
func NewSlabStore() *SlabStore { return &SlabStore{} }

// str returns the bytes r locates in chunks as a string that aliases them.
func str(chunks [][]byte, r slabRef) string {
	if r.n == 0 {
		return ""
	}
	return unsafe.String(&chunks[r.chunk][r.off], r.n)
}

// put copies v into the arena and returns its ref.
func (s *SlabStore) put(v string) slabRef {
	n := len(v)
	if n == 0 {
		return slabRef{}
	}
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("extarray: SlabStore value of %d bytes", n))
	}
	s.live += int64(n)
	if n > slabChunk {
		s.chunks = append(s.chunks, []byte(v))
		return slabRef{chunk: uint32(len(s.chunks) - 1), n: uint32(n)}
	}
	if n > s.free {
		s.chunks = append(s.chunks, make([]byte, slabChunk))
		s.open, s.free = uint32(len(s.chunks)-1), slabChunk
	}
	off := slabChunk - s.free
	copy(s.chunks[s.open][off:], v)
	s.free -= n
	return slabRef{chunk: s.open, off: uint32(off), n: uint32(n)}
}

// release counts r's bytes as dead and compacts once they outweigh the
// live ones.
func (s *SlabStore) release(r slabRef) {
	s.live -= int64(r.n)
	s.dead += int64(r.n)
	if s.dead <= s.live || s.dead <= slabCompactFloor {
		return
	}
	old := s.chunks
	s.chunks, s.free, s.live, s.dead = nil, 0, 0, 0
	move := func(pg *slabPage) {
		for i, r := range pg.refs {
			if r.n != 0 {
				pg.refs[i] = s.put(str(old, r))
			}
		}
	}
	for _, pg := range s.dir {
		if pg != nil {
			move(pg)
		}
	}
	for _, pg := range s.far {
		move(pg)
	}
}

// Get implements Store. The string aliases the arena; see SlabStore.
func (s *SlabStore) Get(addr int64) (string, bool) {
	p, off, w, bit := split(addr)
	if pg := s.page(p); pg != nil && pg.used[w]&bit != 0 {
		return str(s.chunks, pg.refs[pg.slot(off, w, bit)]), true
	}
	return "", false
}

// Set implements Store. It copies v into the arena.
func (s *SlabStore) Set(addr int64, v string) {
	p, off, w, bit := split(addr)
	pg := s.page(p)
	if pg == nil {
		pg = s.alloc(p)
	}
	r := s.put(v)
	if addr > s.max {
		s.max = addr
	}
	if pg.used[w]&bit == 0 {
		pg.insert(off, w, bit, r)
		s.n++
		return
	}
	i := pg.slot(off, w, bit)
	old := pg.refs[i]
	pg.refs[i] = r
	s.release(old)
}

// Delete implements Store.
func (s *SlabStore) Delete(addr int64) {
	p, off, w, bit := split(addr)
	if pg := s.page(p); pg != nil && pg.used[w]&bit != 0 {
		s.n--
		s.release(pg.remove(off, w, bit))
	}
}

// Len implements Store.
func (s *SlabStore) Len() int { return s.n }

// MaxAddr implements Store.
func (s *SlabStore) MaxAddr() int64 { return s.max }

// Scan implements Store as PagedStore does. A sparse page's refs are in
// slot order, so the k-th present slot's ref is refs[k]. The strings fn
// receives alias the arena, as Get's do.
func (s *SlabStore) Scan(fn func(addr int64, v string)) {
	s.scan(func(p int64, pg *slabPage) {
		direct := pg.direct()
		slots(&pg.used, func(off, rank int) {
			if direct {
				rank = off
			}
			fn(p<<pageBits|int64(off), str(s.chunks, pg.refs[rank]))
		})
	})
}

// Pages returns the number of pages currently allocated, counted as
// PagedStore counts them.
func (s *SlabStore) Pages() int { return s.pages }
