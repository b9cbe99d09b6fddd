package tabled

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"pairfn/internal/walog"
)

// This file is the durability layer promised by §3's growth guarantee: a
// table that never remaps surviving elements is only trustworthy if the
// elements themselves survive a crash. The write-ahead log records every
// acknowledged set and resize as a CRC32-framed record and fsyncs it —
// concurrent appends sharing one fsync — before the HTTP response leaves
// the server. The append/fsync/replay/checkpoint mechanics live in
// the shared internal/walog core (lifted out of this file so the WBC
// coordinator journal runs the same loop); what remains here is the tabled
// record codec.
//
// Ordering contract: mutations are applied to the in-memory table FIRST,
// then logged, then acknowledged. Both steps happen before the ack, so an
// acknowledged write is always in memory AND durable; a crash between
// apply and log loses only writes that were never acknowledged, which is
// the contract clients get. CheckpointSeq holds the WAL lock across the
// snapshot save, so no acknowledged write can land between the snapshot's
// consistent cut and the log truncation — anything in memory at the cut is
// in the snapshot, and anything logged after the cut replays idempotently
// on top of it. (Two *concurrent* requests racing on the same cell may be
// logged in either order, matching their undefined apply order; requests
// from one client are naturally serialized by request/response.)

// WAL record kinds.
const (
	walKindSet    = byte(1) // a batch of cell writes
	walKindResize = byte(2) // a dimension change
)

// maxWALChunkCells bounds one set record so a single frame stays far below
// extarray.MaxFramePayload even with large values; bigger batches are
// split across consecutive frames (the split is invisible to replay).
const maxWALChunkCells = 4096

// ErrWALClosed is returned by appends after Close.
var ErrWALClosed = walog.ErrClosed

// A WALRecord is one replayed log entry, handed to the apply callback of
// OpenWAL in log order.
type WALRecord struct {
	Kind  byte
	Cells []Cell[string] // walKindSet
	Rows  int64          // walKindResize
	Cols  int64
}

// WALFile is the handle the WAL appends through. *os.File satisfies it;
// the fault-injection layer (FaultFile) wraps it to exercise torn writes
// and sync failures.
type WALFile = walog.File

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Metrics receives wal_* instrumentation (nil records nothing).
	Metrics *Metrics
	// WrapFile, when non-nil, wraps the append-side file handle — the
	// fault-injection seam. Replay always reads the raw file.
	WrapFile func(WALFile) WALFile
	// StatePath, when non-empty, names the durable stream-state sidecar:
	// the log's base sequence and epoch marks survive restarts (see
	// walog.Options.StatePath). Replicated servers must set it.
	StatePath string
	// SnapshotSeq/SnapshotEpoch are the replication cut embedded in the
	// snapshot the caller just loaded (LoadShardedFileMeta); they drive
	// the boot rule that discards a log the snapshot subsumes.
	SnapshotSeq   uint64
	SnapshotEpoch uint64
}

// A WAL is an append-only, CRC-framed, fsync-before-ack log of table
// mutations. All methods are safe for concurrent use. A WAL that hits an
// append or sync failure becomes sticky-failed: every later append returns
// the original error, and the server is expected to degrade to read-only
// (the already-applied but unacknowledged suffix is truncated as a torn
// tail on the next boot).
//
// The log mechanics (checkpoints, cuts, epochs, the replication stream,
// Close) are the embedded walog.Log's methods; WAL adds only the tabled
// record format. The follower re-appends exactly the payload bytes the
// primary framed (Append), so its log is a byte-identical prefix of the
// primary's and its record count IS its replication position.
type WAL struct {
	*walog.Log
}

// walObserver adapts the shared log's instrumentation hook to the tabled
// Metrics bundle (whose methods are nil-receiver-safe).
type walObserver struct{ m *Metrics }

func (o walObserver) LogAppend(n int64)                  { o.m.walAppend(n) }
func (o walObserver) LogSync(d time.Duration, err error) { o.m.walSync(d, err) }
func (o walObserver) LogSize(n int64)                    { o.m.walSize(n) }
func (o walObserver) LogReplay(records int, torn bool)   { o.m.walReplay(records, torn) }
func (o walObserver) LogCheckpoint()                     { o.m.walCheckpoint() }

// OpenWAL opens (creating if absent) the log at path, replays every intact
// record through apply in log order, truncates any torn or corrupt tail,
// and returns the WAL positioned for appends. Replayed records are exactly
// the acknowledged mutations since the snapshot the caller just loaded;
// applying them is idempotent, so replaying a tail twice (e.g. after a
// crash during a previous recovery) converges to the same state.
func OpenWAL(path string, apply func(WALRecord) error, opt WALOptions) (*WAL, int, error) {
	l, replayed, err := walog.Open(path, func(payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		return apply(rec)
	}, walog.Options{
		Observer:      walObserver{opt.Metrics},
		WrapFile:      opt.WrapFile,
		Name:          "tabled: wal",
		StatePath:     opt.StatePath,
		SnapshotSeq:   opt.SnapshotSeq,
		SnapshotEpoch: opt.SnapshotEpoch,
	})
	if err != nil {
		return nil, replayed, err
	}
	return &WAL{Log: l}, replayed, nil
}

// AppendSet logs a batch of acknowledged cell writes. It returns only
// after the record is durable (fsynced, possibly by one fsync shared with
// concurrent appends). Large batches are split across frames.
func (w *WAL) AppendSet(cells []Cell[string]) error {
	_, err := w.appendSet(context.Background(), time.Time{}, nil, cells)
	return err
}

// appendSet is AppendSet encoding each record into buf, which it returns
// grown for the caller to pass again: the log writes a payload before
// Enqueue returns, so buf is free once appendSet does. A wait parked
// behind another batch's fsync ends with ctx or at deadline (see
// walog.Ticket.Wait).
func (w *WAL) appendSet(ctx context.Context, deadline time.Time, buf []byte, cells []Cell[string]) ([]byte, error) {
	for len(cells) > 0 {
		n := min(len(cells), maxWALChunkCells)
		buf = appendSetRecord(buf[:0], cells[:n])
		if err := w.Enqueue(buf).Wait(ctx, deadline); err != nil {
			return buf, err
		}
		cells = cells[n:]
	}
	return buf, nil
}

// AppendResize logs an acknowledged dimension change.
func (w *WAL) AppendResize(rows, cols int64) error {
	return w.Append(encodeResizeRecord(rows, cols))
}

// DecodeRecord parses one frame payload into a typed record — exposed for
// the follower, which receives primary payloads over the wire and must
// both apply and re-log them. A set record's values alias payload, which
// ReadFrames and walog.ReadStream reuse for the next frame: the backend
// a record is applied to copies what it keeps (see Backend), and anything
// else that keeps a value past the callback must clone it.
func DecodeRecord(payload []byte) (WALRecord, error) { return decodeWALRecord(payload) }

// appendSetRecord appends the serialized set batch to dst:
//
//	kind=1, uvarint count, then per cell: varint x, varint y,
//	uvarint len(v), v bytes
func appendSetRecord(dst []byte, cells []Cell[string]) []byte {
	dst = append(dst, walKindSet)
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		dst = binary.AppendVarint(dst, c.X)
		dst = binary.AppendVarint(dst, c.Y)
		dst = binary.AppendUvarint(dst, uint64(len(c.V)))
		dst = append(dst, c.V...)
	}
	return dst
}

// encodeResizeRecord serializes a resize: kind=2, varint rows, varint cols.
func encodeResizeRecord(rows, cols int64) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64)
	buf = append(buf, walKindResize)
	buf = binary.AppendVarint(buf, rows)
	buf = binary.AppendVarint(buf, cols)
	return buf
}

// decodeWALRecord parses one frame payload. Frames are CRC-protected, so a
// decode failure here means a version mismatch or an encoder bug, not bit
// rot — it aborts replay rather than being skipped. Set values alias
// payload (see DecodeRecord).
func decodeWALRecord(payload []byte) (WALRecord, error) {
	if len(payload) == 0 {
		return WALRecord{}, errors.New("empty wal record")
	}
	kind, rest := payload[0], payload[1:]
	switch kind {
	case walKindSet:
		count, n := binary.Uvarint(rest)
		if n <= 0 || count > maxWALChunkCells {
			return WALRecord{}, fmt.Errorf("wal set record: bad count")
		}
		rest = rest[n:]
		cells := make([]Cell[string], 0, count)
		for i := uint64(0); i < count; i++ {
			x, n := binary.Varint(rest)
			if n <= 0 {
				return WALRecord{}, fmt.Errorf("wal set record: bad x at cell %d", i)
			}
			rest = rest[n:]
			y, n := binary.Varint(rest)
			if n <= 0 {
				return WALRecord{}, fmt.Errorf("wal set record: bad y at cell %d", i)
			}
			rest = rest[n:]
			vlen, n := binary.Uvarint(rest)
			if n <= 0 || uint64(len(rest[n:])) < vlen {
				return WALRecord{}, fmt.Errorf("wal set record: bad value at cell %d", i)
			}
			rest = rest[n:]
			cells = append(cells, Cell[string]{X: x, Y: y, V: aliasString(rest[:vlen])})
			rest = rest[vlen:]
		}
		if len(rest) != 0 {
			return WALRecord{}, errors.New("wal set record: trailing bytes")
		}
		return WALRecord{Kind: walKindSet, Cells: cells}, nil
	case walKindResize:
		rows, n := binary.Varint(rest)
		if n <= 0 {
			return WALRecord{}, errors.New("wal resize record: bad rows")
		}
		rest = rest[n:]
		cols, n := binary.Varint(rest)
		if n <= 0 {
			return WALRecord{}, errors.New("wal resize record: bad cols")
		}
		if len(rest[n:]) != 0 {
			return WALRecord{}, errors.New("wal resize record: trailing bytes")
		}
		return WALRecord{Kind: walKindResize, Rows: rows, Cols: cols}, nil
	}
	return WALRecord{}, fmt.Errorf("unknown wal record kind %d", kind)
}

// ApplyWALRecord applies one replayed record to a backend — the shared
// replay step used by the server at boot and by recovery tests. Per-cell
// bounds errors are impossible for records that were acknowledged against
// the same state evolution (resizes replay in order too), so any error is
// surfaced.
func ApplyWALRecord(b Backend[string], rec WALRecord) error {
	switch rec.Kind {
	case walKindSet:
		errs := make([]error, len(rec.Cells))
		b.SetBatchInto(rec.Cells, errs)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("tabled: wal replay set: %w", err)
			}
		}
		return nil
	case walKindResize:
		if err := b.Resize(rec.Rows, rec.Cols); err != nil {
			return fmt.Errorf("tabled: wal replay resize: %w", err)
		}
		return nil
	}
	return fmt.Errorf("tabled: wal replay: unknown kind %d", rec.Kind)
}
