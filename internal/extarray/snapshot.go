package extarray

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// PFLike is the slice of core.StorageMapping that snapshots need: a named,
// invertible address mapping. (Declared structurally so extarray does not
// force its callers through core's concrete types.)
type PFLike interface {
	Name() string
	Encode(x, y int64) (int64, error)
	Decode(z int64) (x, y int64, err error)
}

// SnapshotData is the gob wire form of a persisted table: the mapping's
// name, the logical dimensions, the cost counters, and every stored element
// with its address. It is shared by Array.Save/Load and by the tabled
// service's sharded snapshots — one format, loadable by either. The storage
// mapping itself is never serialized (mappings are code); its Name is
// recorded and checked on load, because addresses are only meaningful under
// the mapping that produced them.
type SnapshotData[T any] struct {
	Mapping string
	Rows    int64
	Cols    int64
	Stats   Stats
	Addrs   []int64
	Values  []T
	// ReplSeq and ReplEpoch tie the snapshot to the replication stream it
	// was cut from: the snapshot is exactly the effect of WAL records
	// [0, ReplSeq), taken under primary epoch ReplEpoch. Zero for
	// snapshots of unreplicated tables; gob leaves absent fields zero, so
	// old snapshots load unchanged.
	ReplSeq   uint64
	ReplEpoch uint64
}

// EncodeSnapshot writes s to w in the snapshot gob format.
func EncodeSnapshot[T any](w io.Writer, s *SnapshotData[T]) error {
	return gob.NewEncoder(w).Encode(s)
}

// DecodeSnapshot reads a snapshot from r, validating its internal
// consistency (equal address/value counts) but not its mapping — callers
// check Mapping against the mapping they will decode addresses with.
//
// Corrupt input — a truncated file, a flipped bit — must surface as an
// error, never a crash: encoding/gob documents that it is not hardened
// against adversarial data and can panic on malformed streams, and a
// server booting from a damaged snapshot needs a clean logged error and a
// nonzero exit, not a panic trace. The decode therefore runs under a
// recover that converts any gob panic into a decode error.
func DecodeSnapshot[T any](r io.Reader) (snap *SnapshotData[T], err error) {
	defer func() {
		if p := recover(); p != nil {
			snap, err = nil, fmt.Errorf("extarray: decode snapshot: corrupt stream: %v", p)
		}
	}()
	var s SnapshotData[T]
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("extarray: decode snapshot: %w", err)
	}
	if len(s.Addrs) != len(s.Values) {
		return nil, fmt.Errorf("extarray: corrupt snapshot (%d addrs, %d values)",
			len(s.Addrs), len(s.Values))
	}
	return &s, nil
}

// CheckSnapshotAddr validates one snapshot address against the mapping and
// the snapshot's logical box, returning the decoded position.
func CheckSnapshotAddr[T any](snap *SnapshotData[T], f PFLike, addr int64) (x, y int64, err error) {
	x, y, err = f.Decode(addr)
	if err != nil {
		return 0, 0, fmt.Errorf("extarray: snapshot address %d: %w", addr, err)
	}
	if x < 1 || y < 1 || x > snap.Rows || y > snap.Cols {
		return 0, 0, fmt.Errorf("extarray: snapshot address %d decodes to (%d, %d) outside %d×%d",
			addr, x, y, snap.Rows, snap.Cols)
	}
	return x, y, nil
}

// Save serializes the array with encoding/gob in the SnapshotData format.
func (a *Array[T]) Save(w io.Writer) error {
	snap := SnapshotData[T]{
		Mapping: a.f.Name(),
		Rows:    a.rows,
		Cols:    a.cols,
		Stats:   a.stats,
	}
	snap.Addrs, snap.Values = make([]int64, 0, a.store.Len()), make([]T, 0, a.store.Len())
	a.store.Scan(func(addr int64, v T) {
		snap.Addrs = append(snap.Addrs, addr)
		snap.Values = append(snap.Values, v)
	})
	return EncodeSnapshot(w, &snap)
}

// Load reconstructs an Array saved by Save. The caller supplies the same
// storage mapping (checked by name) and a fresh backing store.
func Load[T any](r io.Reader, f PFLike, store Store[T]) (*Array[T], error) {
	snap, err := DecodeSnapshot[T](r)
	if err != nil {
		return nil, fmt.Errorf("extarray: Load: %w", err)
	}
	if snap.Mapping != f.Name() {
		return nil, fmt.Errorf("extarray: Load: snapshot was laid out by %q, not %q",
			snap.Mapping, f.Name())
	}
	a, err := New[T](f, store, snap.Rows, snap.Cols)
	if err != nil {
		return nil, err
	}
	for i, addr := range snap.Addrs {
		// Validate the address decodes into the logical box before
		// trusting it.
		if _, _, err := CheckSnapshotAddr(snap, f, addr); err != nil {
			return nil, fmt.Errorf("extarray: Load: %w", err)
		}
		store.Set(addr, snap.Values[i])
	}
	a.stats = snap.Stats
	return a, nil
}

// Range calls fn for every stored element in row-major logical order,
// stopping early if fn returns false. It scans the store, decodes the
// addresses and sorts the positions, so it costs the stored elements,
// not the logical box.
func (a *Array[T]) Range(fn func(x, y int64, v T) bool) error {
	type cell struct {
		x, y int64
		v    T
	}
	var addrs []int64
	var cells []cell
	a.store.Scan(func(addr int64, v T) {
		addrs = append(addrs, addr)
		cells = append(cells, cell{v: v})
	})
	xs, ys, err := decode(a.f, addrs)
	if err != nil {
		return err
	}
	for i := range cells {
		cells[i].x, cells[i].y = xs[i], ys[i]
	}
	slices.SortFunc(cells, func(p, q cell) int { return cmp.Or(cmp.Compare(p.x, q.x), cmp.Compare(p.y, q.y)) })
	for _, c := range cells {
		if !fn(c.x, c.y, c.v) {
			return nil
		}
	}
	return nil
}
