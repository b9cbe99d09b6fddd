package tabled

import (
	"fmt"
	"sync"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
)

// stripeBits sizes address stripes at 2^10 consecutive addresses — one
// PagedStore or SlabStore page — so a backing page never spans shards and
// stripe arithmetic is a shift.
const stripeBits = 10

// MaxShards bounds the shard count (and with it per-shard metric
// cardinality).
const MaxShards = 256

// A Cell is one positioned value in a batch.
type Cell[T any] struct {
	X, Y int64
	V    T
}

// A Pos is one position in a batched get.
type Pos struct {
	X, Y int64
}

// A GetResult is the outcome of one batched get.
type GetResult[T any] struct {
	V   T
	OK  bool
	Err error
}

// shard is one lock-striped slice of the address space with its own
// backing store and footprint (both guarded by mu). The store is keyed by
// shard-local addresses (Sharded.local); footprint is the largest real
// address ever set here.
type shard[T any] struct {
	mu        sync.RWMutex
	store     extarray.Store[T]
	footprint int64
}

// Sharded is an address-striped, concurrently accessible extendible table:
// the tabled replacement for extarray.Sync on the hot path. It implements
// extarray.Table[T] plus batched operations that take each shard's lock
// once per batch. See the package documentation for the locking model.
type Sharded[T any] struct {
	f      core.StorageMapping
	shards []shard[T]
	mask   int64
	bits   uint // log2 of len(shards)
	m      *Metrics
	// newStore allocates a fresh backing store — retained so
	// RestoreSnapshot can swap every shard's contents wholesale.
	newStore func() extarray.Store[T]

	// rows, cols, reshapes and moves are written only under ALL shard
	// write locks (in index order) and read under any single shard lock.
	rows     int64
	cols     int64
	reshapes int64
	moves    int64
}

// NewSharded returns an empty rows×cols sharded table over f. nshards is
// rounded up to a power of two in [1, MaxShards]; newStore allocates one
// backing store per shard (extarray.NewSlabStore for a served table,
// see Backend). m may be nil.
func NewSharded[T any](f core.StorageMapping, nshards int, newStore func() extarray.Store[T], rows, cols int64, m *Metrics) (*Sharded[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("tabled: dimensions %d×%d invalid", rows, cols)
	}
	var bits uint
	for 1<<bits < nshards && 1<<bits < MaxShards {
		bits++
	}
	s := &Sharded[T]{
		f:        f,
		shards:   make([]shard[T], 1<<bits),
		mask:     1<<bits - 1,
		bits:     bits,
		m:        m,
		newStore: newStore,
		rows:     rows,
		cols:     cols,
	}
	for i := range s.shards {
		s.shards[i].store = newStore()
	}
	return s, nil
}

// Mapping returns the storage mapping laying out this table.
func (s *Sharded[T]) Mapping() core.StorageMapping { return s.f }

// NumShards returns the shard count.
func (s *Sharded[T]) NumShards() int { return len(s.shards) }

// shardOf returns the shard owning addr: stripe (addr >> stripeBits),
// folded over the shards.
func (s *Sharded[T]) shardOf(addr int64) *shard[T] {
	return &s.shards[(addr>>stripeBits)&s.mask]
}

func (s *Sharded[T]) shardIndex(addr int64) int {
	return int((addr >> stripeBits) & s.mask)
}

// local maps addr to its address in the owning shard's store. The shard
// owns every stripe ≡ its index (mod the shard count), so dropping the
// stripe number's low shard bits numbers its stripes 0, 1, 2, … with no
// gaps: a paged store's dense page directory stays dense, and each local
// page is exactly one real page, so page counts do not change.
func (s *Sharded[T]) local(addr int64) int64 {
	return addr>>(stripeBits+s.bits)<<stripeBits | addr&(1<<stripeBits-1)
}

// scan calls fn with every stored cell's real address, shard by shard,
// each shard in ascending address order. Shard g's local address gets
// back the stripe bits that local dropped: the inverse of local. The
// caller holds every shard lock, and fn must not modify the stores.
func (s *Sharded[T]) scan(fn func(addr int64, v T)) {
	for g := range s.shards {
		s.shards[g].store.Scan(func(la int64, v T) {
			fn(la>>stripeBits<<(stripeBits+s.bits)|int64(g)<<stripeBits|la&(1<<stripeBits-1), v)
		})
	}
}

// checkBounds validates (x, y) against dims; the caller must hold at least
// one shard lock.
func (s *Sharded[T]) checkBounds(x, y int64) error {
	if x < 1 || y < 1 || x > s.rows || y > s.cols {
		return fmt.Errorf("%w: (%d, %d) in %d×%d", extarray.ErrBounds, x, y, s.rows, s.cols)
	}
	return nil
}

// Dims implements extarray.Table.
func (s *Sharded[T]) Dims() (int64, int64) {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return s.rows, s.cols
}

// Get implements extarray.Table. The address (and with it the shard) is
// computed before any lock is taken; only the owning shard is locked.
func (s *Sharded[T]) Get(x, y int64) (T, bool, error) {
	var zero T
	if x < 1 || y < 1 {
		return zero, false, fmt.Errorf("%w: (%d, %d)", extarray.ErrBounds, x, y)
	}
	addr, err := s.f.Encode(x, y)
	if err != nil {
		return zero, false, err
	}
	sh := s.shardOf(addr)
	s.m.shardOp(s.shardIndex(addr))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if err := s.checkBounds(x, y); err != nil {
		return zero, false, err
	}
	v, ok := sh.store.Get(s.local(addr))
	return v, ok, nil
}

// Set implements extarray.Table.
func (s *Sharded[T]) Set(x, y int64, v T) error {
	if x < 1 || y < 1 {
		return fmt.Errorf("%w: (%d, %d)", extarray.ErrBounds, x, y)
	}
	addr, err := s.f.Encode(x, y)
	if err != nil {
		return err
	}
	sh := s.shardOf(addr)
	s.m.shardOp(s.shardIndex(addr))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.checkBounds(x, y); err != nil {
		return err
	}
	sh.store.Set(s.local(addr), v)
	if addr > sh.footprint {
		sh.footprint = addr
	}
	return nil
}

// batchRef ties one batch entry to its precomputed address.
type batchRef struct {
	idx  int
	addr int64
}

// planScratch holds every buffer one batch layout needs, pooled so the
// steady-state plan performs no allocations: the batched address pass
// (core.EncodeBatch) reads xs/ys and writes addrs, the counting sort fills
// tmp/starts/cur, and the scatter fills refs.
type planScratch struct {
	xs, ys, addrs []int64
	tmp, refs     []batchRef
	starts, cur   []int32
}

// planPool recycles plan scratch across batches (and across Sharded
// instances: the buffers carry no type parameter and grow to the largest
// batch/shard-count seen).
var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// grow sizes the scratch for an n-entry batch over nshards shards,
// reusing capacity wherever it suffices.
func (p *planScratch) grow(n, nshards int) {
	if cap(p.xs) < n {
		p.xs = make([]int64, n)
		p.ys = make([]int64, n)
		p.addrs = make([]int64, n)
		p.tmp = make([]batchRef, n)
		p.refs = make([]batchRef, n)
	}
	if cap(p.starts) < nshards+1 {
		p.starts = make([]int32, nshards+1)
		p.cur = make([]int32, nshards)
	}
}

// plan lays one batch out in shard order with a stable two-pass counting
// sort over scr.xs/ys[:n] (which the caller has filled). Addresses are
// computed for the whole batch in one core.EncodeBatch call — mappings
// with a native batch implementation amortize shell-walk state and pay
// interface dispatch once per batch, not once per cell. It returns the
// shard-ordered refs and per-shard start offsets: shard g's work is
// refs[starts[g]:starts[g+1]]. Entries whose encode failed are omitted
// from refs and left with scr.addrs[i] == 0 (never a valid address);
// failed reports whether any exist, and the caller recovers their errors
// via encodeErr — keeping the happy path free of error-reporting closures
// and of allocations.
func (s *Sharded[T]) plan(scr *planScratch, n int) (refs []batchRef, starts []int32, failed bool) {
	core.EncodeBatch(s.f, scr.xs[:n], scr.ys[:n], scr.addrs[:n], nil)
	tmp := scr.tmp[:0]
	starts = scr.starts[:len(s.shards)+1]
	clear(starts)
	for i := 0; i < n; i++ {
		addr := scr.addrs[i]
		if addr == 0 {
			failed = true
			continue
		}
		tmp = append(tmp, batchRef{idx: i, addr: addr})
		starts[s.shardIndex(addr)+1]++
	}
	for g := 1; g < len(starts); g++ {
		starts[g] += starts[g-1]
	}
	// Forward scatter against incrementing start cursors: stable, so entries
	// for the same position keep their input order within a shard.
	cur := scr.cur[:len(s.shards)]
	copy(cur, starts)
	refs = scr.refs[:len(tmp)]
	for _, r := range tmp {
		g := s.shardIndex(r.addr)
		refs[cur[g]] = r
		cur[g]++
	}
	return refs, starts, failed
}

// encodeErr re-derives the per-entry error for an element the batched
// address pass rejected (cold path: it runs only for entries that already
// failed once). Out-of-domain positions are reported as ErrBounds to match
// the scalar Get/Set surface.
func (s *Sharded[T]) encodeErr(x, y int64) error {
	if x < 1 || y < 1 {
		return fmt.Errorf("%w: (%d, %d)", extarray.ErrBounds, x, y)
	}
	if _, err := s.f.Encode(x, y); err != nil {
		return err
	}
	// Unreachable if the mapping honors the BatchEncoder contract
	// (dst == 0 only on failure); fail loudly rather than silently drop.
	return fmt.Errorf("tabled: mapping %s batch-rejected (%d, %d) without an error", s.f.Name(), x, y)
}

// SetBatchInto stores every cell, taking each touched shard's write lock
// exactly once. Its per-cell outcomes go into errs, whose length must
// equal len(cells); entries are overwritten — nil on success, or the
// per-cell error (bounds, overflow). Cells in different shards are applied
// in shard order, not input order; cells at the same position within one
// batch are applied in input order.
func (s *Sharded[T]) SetBatchInto(cells []Cell[T], errs []error) {
	clear(errs)
	scr := planPool.Get().(*planScratch)
	defer planPool.Put(scr)
	scr.grow(len(cells), len(s.shards))
	for i := range cells {
		scr.xs[i], scr.ys[i] = cells[i].X, cells[i].Y
	}
	refs, starts, anyFailed := s.plan(scr, len(cells))
	if anyFailed {
		for i := range cells {
			if scr.addrs[i] == 0 {
				errs[i] = s.encodeErr(cells[i].X, cells[i].Y)
			}
		}
	}
	for g := range s.shards {
		span := refs[starts[g]:starts[g+1]]
		if len(span) == 0 {
			continue
		}
		sh := &s.shards[g]
		s.m.shardOps(g, len(span))
		sh.mu.Lock()
		for _, r := range span {
			c := &cells[r.idx]
			if err := s.checkBounds(c.X, c.Y); err != nil {
				errs[r.idx] = err
				continue
			}
			sh.store.Set(s.local(r.addr), c.V)
			if r.addr > sh.footprint {
				sh.footprint = r.addr
			}
		}
		sh.mu.Unlock()
	}
}

// GetBatchInto reads every position, taking each touched shard's read
// lock exactly once. Results go into res in input order; its length must
// equal len(keys), and entries are overwritten.
func (s *Sharded[T]) GetBatchInto(keys []Pos, res []GetResult[T]) {
	clear(res)
	scr := planPool.Get().(*planScratch)
	defer planPool.Put(scr)
	scr.grow(len(keys), len(s.shards))
	for i := range keys {
		scr.xs[i], scr.ys[i] = keys[i].X, keys[i].Y
	}
	refs, starts, anyFailed := s.plan(scr, len(keys))
	if anyFailed {
		for i := range keys {
			if scr.addrs[i] == 0 {
				res[i].Err = s.encodeErr(keys[i].X, keys[i].Y)
			}
		}
	}
	for g := range s.shards {
		span := refs[starts[g]:starts[g+1]]
		if len(span) == 0 {
			continue
		}
		sh := &s.shards[g]
		s.m.shardOps(g, len(span))
		sh.mu.RLock()
		for _, r := range span {
			k := keys[r.idx]
			if err := s.checkBounds(k.X, k.Y); err != nil {
				res[r.idx].Err = err
				continue
			}
			res[r.idx].V, res[r.idx].OK = sh.store.Get(s.local(r.addr))
		}
		sh.mu.RUnlock()
	}
}

// lockAll takes every shard's write lock in index order (the only legal
// order — see the package doc).
func (s *Sharded[T]) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Sharded[T]) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// Resize implements extarray.Table. It is the one global barrier: all
// shard locks are held while dimensions change. Growth touches no backing
// store; a shrink deletes discarded cells from the shards that own their
// addresses through extarray.Shrink, as extarray.Array does, and counts
// them as moves.
func (s *Sharded[T]) Resize(rows, cols int64) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("%w: to %d×%d", extarray.ErrShrink, rows, cols)
	}
	s.lockAll()
	defer s.unlockAll()
	s.reshapes++
	n := s.lenLocked()
	err := extarray.Shrink(s.f, s.rows, s.cols, rows, cols, n, s.scan,
		func(addr int64) { s.shardOf(addr).store.Delete(s.local(addr)) })
	s.moves += int64(n - s.lenLocked())
	if err != nil {
		return err
	}
	s.rows, s.cols = rows, cols
	return nil
}

// Stats implements extarray.Table: Footprint is the max of the shards'
// real-address footprints, Moves and Reshapes the table's counters.
func (s *Sharded[T]) Stats() extarray.Stats { return s.stats(false) }

// stats is the one fold behind Stats and SaveAt. With locked false it
// takes each shard's read lock in turn; SaveAt passes true while it holds
// every shard lock.
func (s *Sharded[T]) stats(locked bool) extarray.Stats {
	var st extarray.Stats
	for i := range s.shards {
		sh := &s.shards[i]
		if !locked {
			sh.mu.RLock()
		}
		st.Footprint = max(st.Footprint, sh.footprint)
		if i == 0 {
			st.Reshapes, st.Moves = s.reshapes, s.moves
		}
		if !locked {
			sh.mu.RUnlock()
		}
	}
	return st
}

// Len returns the number of stored elements across all shards.
func (s *Sharded[T]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.store.Len()
		sh.mu.RUnlock()
	}
	return n
}

// lenLocked is Len for a caller that holds every shard lock.
func (s *Sharded[T]) lenLocked() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].store.Len()
	}
	return n
}
