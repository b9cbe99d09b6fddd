// Package walog is the shared write-ahead-log core: the generic
// append → fsync → replay → checkpoint loop that every durable service in
// the repo runs, factored out of the tabled WAL so the WBC coordinator
// journal (and any future log) reuses one proven implementation.
//
// A Log is an append-only file of CRC32-framed records (the
// extarray/framelog frame format). The durability contract is the one PR 4
// established for tabled and §4's accountability story demands for WBC:
// a record handed back as durable survives kill -9; a crash loses at most
// a suffix of records that were never acknowledged, and boot-time replay
// truncates a torn final frame instead of failing.
//
// Two-phase appends split ordering from durability: Enqueue frames the
// record into the file under the log's own lock (so callers that must keep
// log order identical to state-mutation order — the WBC coordinator, whose
// ops do not commute — enqueue while still holding their state lock), and
// Ticket.Wait blocks until the record is fsynced. The fsync runs with the
// log's mutex released, one at a time, so appends, Tail and epoch reads
// never queue behind the disk; Waits arriving during a sync park until it
// ends and then find their record covered or lead the next one, so
// concurrent appends share fsyncs without any timer. Because frames are
// laid out in enqueue order and fsync covers the file prefix, durability
// is prefix-closed: if record n survives a crash, so does every record
// before it — which is what makes sequence-gated replay (skip records at
// or below the checkpoint's op counter) idempotent and torn-cut safe.
// Open fsyncs what it replayed before counting it durable. The
// replication stream (stream.go) serves a record once it is written, so
// a follower's fsync can overlap the owner's; SeqState still reports only
// the durable horizon.
//
// Any append or sync failure is sticky: the log can no longer attest
// durability, so every later append returns the original error and the
// owning server is expected to degrade to read-only rather than die.
package walog
