package tabled

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"pairfn/internal/extarray"
)

// This file is the snapshot-transfer side of replication (DESIGN §5e): a
// primary serves its latest checkpointable state over HTTP so a follower
// stranded below the log base — or an ex-primary fenced onto a dead fork —
// can rebuild itself without operator surgery. The response body is the
// table's gob snapshot wrapped in the same CRC frames the WAL uses, so the
// receiving side fails closed on any transfer corruption, and the stream
// is resumable by byte offset (pinned to a snapshot sequence, since a
// newer spool may replace the old one between attempts).

// ReplSnapshotPath is the snapshot-transfer endpoint:
//
//	GET /v1/repl/snapshot[?seq=S&offset=N]
//
// seq+offset resume an interrupted transfer; they are honored only when
// seq still names the currently-served spool, otherwise the full current
// spool is served from byte 0.
const ReplSnapshotPath = "/v1/repl/snapshot"

// Snapshot-transfer response headers: the WAL cut the snapshot captures
// (the state is exactly records [0, seq)), the snapshot's epoch, and the
// total spool size in bytes (the resume target).
const (
	ReplSnapshotSeqHeader  = "X-Tabled-Repl-Snapshot-Seq"
	ReplEpochHeader        = "X-Tabled-Repl-Epoch"
	ReplSnapshotSizeHeader = "X-Tabled-Repl-Snapshot-Size"
)

// replSnapChunk caps one CRC frame of the snapshot spool. Small enough
// that a flipped byte poisons one frame, large enough that framing
// overhead is negligible.
const replSnapChunk = 64 << 10

// replSnapSpoolName is the on-disk name of the cached spool in Dir. It is
// replaced atomically (temp + rename), so a crash mid-build leaves the
// previous spool intact.
const replSnapSpoolName = "repl-snapshot.spool"

// ReplSnapshots serves /v1/repl/snapshot from a spool file it (re)builds
// on demand: a spool is reusable while its cut is at or above the WAL
// base (a reseeded follower can tail records [cut, …) from the log), and
// is rebuilt under walog.Cut — which syncs and blocks appends — the first
// time a request finds it stale.
type ReplSnapshots struct {
	// WAL provides the cut (Cut) and the staleness check (SeqState).
	WAL *WAL
	// Save writes the table snapshot stamped with cut/epoch — typically
	// Sharded.SaveAt. It runs under the WAL append lock; the pause is the
	// price of an exact cut, same as a checkpoint.
	Save func(w io.Writer, cut, epoch uint64) error
	// Dir is where the spool lives (typically the WAL's directory).
	Dir string
	// Injector, when non-nil, can flip one byte per served response
	// (Faults.SnapCorruptRate) — the harness for proving the receiving
	// side fails closed and retries.
	Injector *FaultInjector
	Metrics  *Metrics
	Logger   *slog.Logger

	mu    sync.Mutex
	path  string
	seq   uint64
	epoch uint64
	size  int64
}

// ensure returns an open handle on a spool whose cut covers the current
// WAL base, rebuilding it first if needed. The file is opened under the
// lock so a concurrent rebuild's rename cannot swap the bytes out from
// under the returned metadata (the open handle keeps serving the old
// inode regardless). The caller closes f.
func (rs *ReplSnapshots) ensure() (f *os.File, seq, epoch uint64, size int64, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	base, _ := rs.WAL.SeqState()
	if rs.path == "" || rs.seq < base {
		if err := rs.rebuildLocked(); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	fh, err := os.Open(rs.path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return fh, rs.seq, rs.epoch, rs.size, nil
}

// rebuildLocked builds a fresh spool under the WAL cut and installs it
// atomically. Called with rs.mu held.
func (rs *ReplSnapshots) rebuildLocked() error {
	if err := os.MkdirAll(rs.Dir, 0o755); err != nil {
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(rs.Dir, replSnapSpoolName+".tmp-*")
	if err != nil {
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var cut, cutEpoch uint64
	err = rs.WAL.Cut(func(c, e uint64) error {
		cut, cutEpoch = c, e
		fw := &frameChunkWriter{w: tmp}
		if err := rs.Save(fw, c, e); err != nil {
			return err
		}
		return fw.Flush()
	})
	if err != nil {
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	st, err := tmp.Stat()
	if err != nil {
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	tmp = nil
	final := filepath.Join(rs.Dir, replSnapSpoolName)
	if err := os.Rename(name, final); err != nil {
		os.Remove(name)
		return fmt.Errorf("tabled: repl snapshot: %w", err)
	}
	rs.path, rs.seq, rs.epoch, rs.size = final, cut, cutEpoch, st.Size()
	if rs.Logger != nil {
		rs.Logger.Info("repl: snapshot spool rebuilt", "seq", cut, "epoch", cutEpoch, "bytes", st.Size())
	}
	return nil
}

// handle serves one snapshot-transfer request.
func (rs *ReplSnapshots) handle(w http.ResponseWriter, r *http.Request) {
	f, seq, epoch, size, err := rs.ensure()
	if err != nil {
		rs.Metrics.replSnapServe(0, err)
		if rs.Logger != nil {
			rs.Logger.Error("repl: snapshot build", "err", err)
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	q := r.URL.Query()
	start := int64(0)
	if os_, ok := parseResume(q.Get("seq"), q.Get("offset"), seq, size); ok {
		start = os_
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ReplSnapshotSeqHeader, strconv.FormatUint(seq, 10))
	w.Header().Set(ReplEpochHeader, strconv.FormatUint(epoch, 10))
	w.Header().Set(ReplSnapshotSizeHeader, strconv.FormatInt(size, 10))
	var dst io.Writer = w
	if at, ok := rs.Injector.SnapshotCorruptAt(size - start); ok {
		dst = &corruptWriter{w: w, at: at}
		if rs.Logger != nil {
			rs.Logger.Warn("repl: injecting snapshot corruption", "at", start+at)
		}
	}
	n, err := io.Copy(dst, io.NewSectionReader(f, start, size-start))
	rs.Metrics.replSnapServe(n, err)
	if err != nil && rs.Logger != nil {
		rs.Logger.Warn("repl: snapshot stream", "err", err)
	}
}

// parseResume validates a seq+offset resume request against the spool
// being served: both must parse, the pinned seq must still be current,
// and the offset must be within the spool. Anything else restarts the
// transfer from byte 0 — the client detects the seq change from the
// response header and resets its side too.
func parseResume(seqStr, offStr string, seq uint64, size int64) (int64, bool) {
	if seqStr == "" || offStr == "" {
		return 0, false
	}
	pin, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || pin != seq {
		return 0, false
	}
	off, err := strconv.ParseInt(offStr, 10, 64)
	if err != nil || off < 0 || off > size {
		return 0, false
	}
	return off, true
}

// frameChunkWriter wraps the gob snapshot stream into CRC frames of at
// most replSnapChunk payload bytes each, using the WAL's frame format so
// the receiving side reuses walog.ReadStream for fail-closed parsing.
type frameChunkWriter struct {
	w   io.Writer
	buf []byte
}

func (fw *frameChunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		room := replSnapChunk - len(fw.buf)
		if room == 0 {
			if err := fw.Flush(); err != nil {
				return 0, err
			}
			room = replSnapChunk
		}
		if room > len(p) {
			room = len(p)
		}
		fw.buf = append(fw.buf, p[:room]...)
		p = p[room:]
	}
	return n, nil
}

// Flush emits the buffered bytes as one frame (a no-op when empty).
func (fw *frameChunkWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := extarray.AppendFrame(fw.w, fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// corruptWriter flips exactly one byte, at cumulative offset at, of the
// stream passing through it — the injected transfer fault. It copies the
// affected chunk so the caller's buffer is never mutated.
type corruptWriter struct {
	w    io.Writer
	at   int64
	off  int64
	done bool
}

func (cw *corruptWriter) Write(p []byte) (int, error) {
	if !cw.done && cw.at >= cw.off && cw.at < cw.off+int64(len(p)) {
		q := make([]byte, len(p))
		copy(q, p)
		q[cw.at-cw.off] ^= 0xff
		cw.done = true
		cw.off += int64(len(p))
		return cw.w.Write(q)
	}
	cw.off += int64(len(p))
	return cw.w.Write(p)
}
