// Package extarray implements dynamically extendible two-dimensional
// arrays/tables (§3): the programmer may expand and shrink them at run
// time. When the storage mapping is a pairing function, positions
// unaffected by a reshaping are never remapped — growing an r×c array by a
// row or a column moves zero elements — whereas the naive row-major scheme
// used by the language processors the paper criticizes remaps the whole
// array, doing Ω(n²) work to accommodate O(n) changes (§3, §1).
//
// The package also accounts for the storage cost of PF-based mapping: the
// footprint (largest address used) is exactly the spread S_A of eq. 3.1
// applied to the positions actually touched, which is what §3.2's compact
// PFs minimize. Beyond the flat PF-addressed array it provides dense and
// hash-table backings, snapshots, row/column views, k-dimensional arrays
// via iterated pairing (internal/tuple), and the naive remap-on-reshape
// baseline.
//
// PagedStore allocates one object per 2^10-address page: a 128-byte used
// bitmap followed by the values. Pages 0 to 2^16-1 are found by index in
// a dense directory; pages past it, which 𝒟 and ℋ reach on wide tables,
// and negative pages sit in a map made on first use. Pages are never
// freed, so Pages counts every page ever written: the spread made
// physical.
//
// SlabStore, the store the table service runs on, pages addresses the
// same way and counts the same pages, but holds string values in one
// append-only byte arena per store. A page keeps its bitmap, per-word
// rank prefixes and one 12-byte ref per present slot, switching to a
// direct 2^10-ref table past 128 present slots, so a page costs what it
// holds and no page holds a pointer into a value. Set copies the value
// into the arena; Get returns a string over the arena's bytes, which are
// never written again: overwrites and deletes count bytes as dead, and
// the arena compacts into fresh chunks once dead bytes outweigh live
// ones.
//
// Every Store has Scan, which visits the stored elements once each in
// ascending address order: MapStore sorts its keys, DenseStore walks its
// used slots, and the paged stores walk their page directories in page
// order and each page's used bitmap, so a scan costs O(pages + elements).
// Saves, Range and sparse shrinks (Shrink) iterate through it, so their
// cost follows the stored elements, not the logical box a grow can set.
//
// # Frames and state files
//
// framelog.go is the one frame format: a length and a CRC32C before each
// payload. Logs (internal/walog) cut a torn tail and go on; durable state
// files — snapshots, the reseed spool, wbc checkpoints, the walog
// sidecar — are gob in 64 KiB frames (EncodeFramed), and DecodeFramed
// refuses any bad checksum, torn frame or trailing byte.
//
// # Overflow and concurrency
//
// Addresses are computed by the underlying storage mapping and inherit its
// exact-int64 contract: a reshape or access whose address would overflow
// int64 surfaces the mapping's ErrOverflow instead of wrapping. Plain
// Array/Table values are not safe for concurrent mutation; wrap them in
// Sync (an RWMutex'd Table, with reshapes acting as write barriers) for
// concurrent workers. Snapshots are immutable once taken.
package extarray
