// Package cluster is the range-sharded multi-node layer of tabled: a
// stateless routing front door (cmd/tabledrouter) over N independent
// tabledserver members, each owning one contiguous slice of the pairing
// function's address space.
//
// The pairing function is what makes the sharding this simple. Every
// member runs the same mapping; a cell's PF address is a pure function of
// its (x, y), so the router computes owners locally — one batched
// core.EncodeBatch call per request, no metadata service, no lookups —
// and a contiguous address range is a contiguous region of the mapping's
// layout (a row-block under diagonal, a block-grid tile under block2d...),
// so range ownership inherits whatever locality the mapping was chosen
// for. The spec (Spec, rangemap.go) is a static contiguous tiling
// [1, max) of the address space, validated at startup.
//
// Request flow: the front door (handler.go) decodes /v1/batch in either
// wire format, the Partitioner (partition.go) lays the ops out per owner
// with the same counting-sort plan the in-process Sharded backend uses,
// the Router (fanout.go) calls the owners concurrently over per-member
// pools of upgraded connections (tabled.ConnPool, docs/WIRE.md §7 — the
// one internal wire), and the plan merges the replies back into request
// order — bit-identical to single-node execution (broadcast ops combine
// under exact rules; rejected positions are forwarded so even error
// strings match; the equivalence test quick-checks this).
//
// A routed batch works in one Scratch, which the front door takes from a
// pool per request and puts back only after the reply (or the 503/409
// refusal) is written. Each member's reply body is read into that
// Scratch, and tabled.ConnPool.Exchange's results alias the caller's
// ExchangeBuf, so the merged results' values and error strings alias the
// request's Scratch too — never a pooled connection, which serves another
// request once its exchange ends. Callers that keep results past the
// Scratch's next use copy them. In steady state the hop allocates a fixed
// count per member exchange, whatever the batch size (DESIGN §5c).
//
// The router holds no durable state. Idempotency lives on the members:
// each sub-batch carries a key derived from the client's Idempotency-Key,
// so retries — the client's or the router's — replay from the members'
// caches instead of double-applying. An active health checker (health.go)
// routes around trouble: degraded (read-only) members keep serving reads
// while their writes fail fast with a typed error, down members fail fast
// entirely. It keeps one immutable observation per member endpoint
// (state, promoted role, epoch, lag), replaced whole by each probe, plus
// each pair's max-epoch latch, which fences a stale primary and survives
// a spec reload that keeps the pair. A sliding-window per-client Limiter
// (limiter.go) guards the front door.
package cluster
