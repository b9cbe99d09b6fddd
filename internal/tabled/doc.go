// Package tabled turns the extendible-array layer (§3) into a network
// service: a sharded, PF-addressed table store behind a batched JSON/HTTP
// API, with snapshot persistence and full observability. It exists to make
// the paper's §3 claim — that PF storage mappings let *live* tables grow
// and shrink without remapping — observable in the setting that motivates
// it: a long-running server mutated by many concurrent clients, where the
// alternative (extarray.Sync's single RWMutex) serializes every operation.
//
// # Sharding and locking model
//
// A Sharded table splits the address space of its storage mapping into
// stripes of 2^10 consecutive addresses (one store page) and assigns
// stripe s to shard s mod N, N a power of two. Each shard owns its own
// lock and its own backing store, so operations on cells whose addresses
// fall in different stripes proceed in parallel, and a batch touching k
// shards costs k lock acquisitions no matter how many cells it carries.
// Because PF addressing is pure arithmetic, the shard of a cell is computed
// *outside* any lock.
//
// A shard's store is keyed by shard-local addresses: stripe s becomes
// local stripe s/N, with the offset inside the stripe kept. Shard i's
// stripes i, i+N, i+2N, … thus land on local pages 0, 1, 2, …, so a
// paged store's dense page directory has no holes, and each local page is
// exactly one real page, so page counts equal those of one store keyed by
// real addresses. Footprints are tracked per shard in real addresses,
// beside the store, so Stats never reads a store's MaxAddr.
//
// The lock hierarchy has one global rule: the logical dimensions (and the
// reshape counter) are written only while holding ALL shard write locks in
// index order, and may be read under ANY single shard lock. Point and batch
// operations therefore see consistent bounds while holding just their own
// shard's lock; Resize acts as a barrier, exactly the grow-then-fill
// semantics extarray.Sync provides — but only reshapes pay for it. A shrink
// deletes discarded cells from the shards that own their addresses; shards
// owning no discarded address have their stores untouched (their lock is
// still taken for the dimension write). Growth touches no store at all —
// that is the paper's point.
//
// # Overflow contract
//
// Addresses inherit the storage mapping's exact-int64 contract: an access
// or reshape whose Encode would overflow surfaces core.ErrOverflow (mapped
// to a per-op error in batches and to an "error" field over HTTP) instead
// of wrapping. No position that encodes successfully is ever silently
// misplaced: the shard index is derived from the exact address.
//
// # Wire format and persistence
//
// Snapshots are CRC-framed extarray snapshot files (extarray.SnapshotData,
// extarray.EncodeFramed) written with extarray.AtomicWriteFile, so a crash
// mid-write never corrupts the previous snapshot, a flipped bit is refused
// at load, and an extarray.Array can load a tabled snapshot (and vice
// versa) under the same mapping. The HTTP API is a
// single batched endpoint (POST /v1/batch) carrying get/set/resize/dims/
// stats ops, plus /v1/stats, /v1/snapshot, and the standard /metrics,
// /healthz, /readyz from internal/obs.
//
// /v1/batch speaks two wires, selected per request by Content-Type: JSON
// (the default) and the compact binary frame format specified normatively
// in docs/WIRE.md (codec.go; Content-Type application/x-tabled-batch). The
// binary path is the zero-allocation one: the server decodes ops and
// encodes results in pooled scratch (server.go), plans shard routing with
// the batched core.EncodeBatch surface (sharded.go), and executes through
// Backend's one batch surface, SetBatchInto/GetBatchInto, into
// caller-owned slices — in steady state a get or set batch is served end
// to end with zero heap allocations. Set values alias the pooled request
// buffer (and, on WAL replay, the frame being read); the backend copies
// what it keeps, which is the ownership rule of Backend: the served table
// runs on extarray.SlabStore, which copies each value into a per-shard
// byte arena and hands gets back as strings over it. Every
// /v1/batch arm shares one pipeline: ReadBatch (negotiate, capped read,
// decode, validate), the server's serve (replay, gates, execute, ack,
// record), and WriteBatch (encode in the request's wire); the router's
// front door calls the same ReadBatch and WriteBatch. tabled.Client selects the wire with its Wire
// field and reuses pooled request frames over a pooled transport
// (DefaultTransport pins per-host idle connections at
// MaxConcurrentBatchConns, where net/http's default of 2 would re-dial
// under concurrent load). EXPERIMENTS.md E26 measures the two wires
// head to head.
//
// Beside /v1/batch, GET /v1/batch/conn upgrades a connection to
// back-to-back binary exchanges (docs/WIRE.md §7; exchange.go): each one
// runs the binary /v1/batch path without per-request HTTP, and a steady
// get exchange allocates nothing. ConnPool (connpool.go) is its client,
// the router's member wire. ConnPool.Exchange works in an ExchangeBuf the
// caller owns: the request envelope, the reply body and the decoded
// results, whose values and error strings alias that body until the
// ExchangeBuf is used again. A reply is never read into memory its
// connection owns, since the connection returns to the pool, and to
// another caller, before this caller is done with the results. A follower's pulls (docs/WIRE.md §8; repl.go,
// follower.go) ride the same machinery: both upgraded wires share one
// reply envelope (writeReply and readReply in exchange.go), one server
// loop (srvkit.UpgradedConn.Serve) and one client connection
// (clientConn in connpool.go: dial and upgrade, context deadline, bounded
// body read), and differ only in their requests, header fields and
// status mapping.
//
// # Durability model
//
// With a WAL configured (wal.go), the contract strengthens from "the last
// snapshot survives" to "every acknowledged write survives": each set
// batch and resize is applied in memory, appended to a CRC32-framed
// write-ahead log, and fsynced (concurrent appends share one fsync)
// before the HTTP 200 is written. Recovery is newest snapshot +
// WAL tail, replayed idempotently in log order; a torn final record — the
// signature of a crash mid-append — is truncated, losing only writes that
// were never acknowledged. Snapshots checkpoint the log: CheckpointSeq
// holds the append lock across the snapshot save and then truncates, so
// the snapshot cut and the log reset are one atomic event and nothing is
// ever replayed against a snapshot that already contains it.
//
// If the log volume fails at runtime the WAL turns sticky-failed and the
// server degrades to read-only instead of dying: writes get 503, reads
// keep serving from memory, /readyz reports degraded for load balancers,
// and tabled_degraded flips to 1. Only a restart — which replays and
// reopens the log — recovers writability.
//
// The client side completes the story: tabled.Client retries transport
// failures and 5xx under jittered exponential backoff (internal/retry),
// reusing one Idempotency-Key per logical batch, and the server replays
// the recorded response to a write batch under a key it has already
// acknowledged — so a retried batch whose original ack was lost is never
// applied (or logged) twice. The record is the §4 response frame and
// answers a retry in whichever wire it arrives; reads are not recorded.
// Fault injection for all of these paths lives in faultwrap.go, behind
// tabledserver's -faults flag, and is zero-cost when disabled.
//
// See cmd/tabledserver (the daemon), cmd/tabledload (the concurrent load
// generator, E23/E26 experiment driver, and chaos-verification harness;
// see scripts/chaos_smoke.sh and scripts/wire_smoke.sh), and
// EXPERIMENTS.md E24 for the measured cost of the fsync-per-ack contract.
package tabled
