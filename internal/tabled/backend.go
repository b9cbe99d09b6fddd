package tabled

import (
	"pairfn/internal/extarray"
)

// Info describes a backend for /v1/stats and load-generator reports.
type Info struct {
	Backend string `json:"backend"` // "sharded", "sync", "hash", ...
	Mapping string `json:"mapping"` // storage-mapping name ("" for hash)
	Shards  int    `json:"shards"`  // 1 for unsharded backends
}

// A Backend is what the tabled server (and the load generator) drives: an
// extendible table with batched operations. Sharded implements it natively;
// WrapTable adapts any extarray.Table — e.g. a Sync-wrapped Array, the E23
// baseline — by looping the batch through per-op calls (each paying the
// wrapped table's per-op lock, which is exactly the contrast under test).
//
// The batch operations write their outcomes into caller-owned slices,
// whose lengths must equal the input's, so the server reuses pooled
// buffers across requests and the batch path allocates nothing.
//
// Set values may alias caller buffers: the server hands SetBatchInto
// strings over its pooled request body, and WAL replay strings over the
// frame being read, both overwritten once the call returns. A backend
// copies what it keeps. A Sharded[string] over extarray.SlabStore does;
// one over extarray.PagedStore[string] keeps the strings themselves and
// must not be served.
type Backend[T any] interface {
	extarray.Table[T]
	SetBatchInto(cells []Cell[T], errs []error)
	GetBatchInto(keys []Pos, res []GetResult[T])
	Describe() Info
}

// Describe implements Backend.
func (s *Sharded[T]) Describe() Info {
	return Info{Backend: "sharded", Mapping: s.f.Name(), Shards: len(s.shards)}
}

// tableBackend adapts an extarray.Table to Backend by per-op looping.
type tableBackend[T any] struct {
	extarray.Table[T]
	info Info
}

// WrapTable adapts t (typically extarray.NewSync over an Array or
// HashBacked) to the Backend interface. Batches execute as one locked call
// per cell — the global-mutex baseline the sharded store replaces.
func WrapTable[T any](t extarray.Table[T], info Info) Backend[T] {
	if info.Shards == 0 {
		info.Shards = 1
	}
	return &tableBackend[T]{Table: t, info: info}
}

func (b *tableBackend[T]) Describe() Info { return b.info }

// SetBatchInto implements Backend (still one locked call per cell — the
// contrast under test; only the result slice is caller-owned).
func (b *tableBackend[T]) SetBatchInto(cells []Cell[T], errs []error) {
	for i, c := range cells {
		errs[i] = b.Set(c.X, c.Y, c.V)
	}
}

// GetBatchInto implements Backend.
func (b *tableBackend[T]) GetBatchInto(keys []Pos, res []GetResult[T]) {
	for i, k := range keys {
		res[i].V, res[i].OK, res[i].Err = b.Get(k.X, k.Y)
	}
}
