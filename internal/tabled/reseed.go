package tabled

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pairfn/internal/extarray"
	"pairfn/internal/retry"
	"pairfn/internal/walog"
)

// This file is the follower half of snapshot-transfer reseed: when
// tailing cannot resume (the source checkpointed past us, or our log is a
// fork of a newer epoch's history), the follower downloads the source's
// snapshot spool, verifies it frame by frame, and installs it — snapshot
// file first, then WAL reset, then in-memory restore — so that a crash at
// any point between those steps boots into a consistent (old or new)
// state, never a mix. See DESIGN §5e for the state machine.

// reseedNeeded is the pull loop's internal signal that the source refused
// to serve frames from our position for a reason a reseed repairs.
type reseedNeeded struct{ reason string }

func (e *reseedNeeded) Error() string { return "tabled: reseed needed: " + e.reason }

// reseedFetchAttempts bounds one reseed's transfer retries. The reseed as
// a whole is retried by the pull loop's backoff schedule; this bound only
// keeps a single attempt from spinning on a flaky link.
const reseedFetchAttempts = 5

// reseedRetryPause paces transfer retries within one reseed.
const reseedRetryPause = 200 * time.Millisecond

// reseed rebuilds this follower from the source's snapshot. A nil return
// means the follower's state — snapshot file, WAL, memory, position — is
// the source's checkpoint and tailing can resume from its cut. Transfer
// and verification failures return transient errors (the pull loop backs
// off and the next 410/409 triggers a fresh reseed); local install
// failures are permanent (a half-writable disk is operator territory).
func (f *Follower) reseed(ctx context.Context, rn *reseedNeeded) error {
	start := time.Now()
	if f.opt.Logger != nil {
		f.opt.Logger.Warn("repl: reseeding from snapshot", "source", f.opt.Source, "reason", rn.reason)
	}
	body, seq, epoch, err := f.fetchSnapshot(ctx)
	if err != nil {
		f.opt.Metrics.replReseedFailure(int64(len(body)))
		return err
	}
	// Unwrap the CRC frames; a flipped byte anywhere fails here, closed.
	var raw []byte
	if _, err := walog.ReadStream(body, func(p []byte) error {
		raw = append(raw, p...)
		return nil
	}); err != nil {
		f.opt.Metrics.replReseedFailure(int64(len(body)))
		return fmt.Errorf("tabled: reseed: snapshot stream: %w", err)
	}
	snap, err := extarray.DecodeSnapshot[string](bytes.NewReader(raw))
	if err != nil {
		f.opt.Metrics.replReseedFailure(int64(len(body)))
		return fmt.Errorf("tabled: reseed: decode: %w", err)
	}
	if snap.ReplSeq != seq || snap.ReplEpoch != epoch {
		f.opt.Metrics.replReseedFailure(int64(len(body)))
		return fmt.Errorf("tabled: reseed: snapshot stamped (seq %d, epoch %d), served as (seq %d, epoch %d)",
			snap.ReplSeq, snap.ReplEpoch, seq, epoch)
	}
	// Install order is the crash-safety argument:
	//  1. snapshot file (atomic rename) — a crash after this boots from
	//     the new snapshot; walog's boot rule (SnapshotSeq > state base)
	//     discards the stale log it supersedes;
	//  2. WAL reset to the cut — a crash after this replays an empty log
	//     on top of the new snapshot: same state;
	//  3. in-memory restore + position — pure memory, no crash window.
	err = f.GuardInstall(func() error {
		if err := extarray.AtomicWriteFile(f.opt.SnapshotPath, func(w io.Writer) error {
			_, werr := w.Write(raw)
			return werr
		}); err != nil {
			return retry.Permanent(fmt.Errorf("tabled: reseed: install snapshot: %w", err))
		}
		if err := f.wal.ResetTo(snap.ReplSeq, snap.ReplEpoch); err != nil {
			return retry.Permanent(fmt.Errorf("tabled: reseed: wal reset: %w", err))
		}
		if err := f.opt.Restore(snap); err != nil {
			return retry.Permanent(fmt.Errorf("tabled: reseed: restore: %w", err))
		}
		return nil
	})
	if err != nil {
		f.opt.Metrics.replReseedFailure(int64(len(body)))
		return err
	}
	f.applied.Store(snap.ReplSeq)
	f.reseeds.Add(1)
	f.lastReseed.Store(time.Now().UnixNano())
	d := time.Since(start)
	f.opt.Metrics.replReseed(int64(len(body)), d)
	f.opt.Metrics.replEpoch(snap.ReplEpoch)
	if f.opt.Logger != nil {
		f.opt.Logger.Info("repl: reseed complete", "seq", snap.ReplSeq, "epoch", snap.ReplEpoch,
			"bytes", len(body), "took", d)
	}
	return nil
}

// fetchSnapshot downloads the source's snapshot spool, resuming an
// interrupted transfer by byte offset as long as the source still serves
// the same snapshot sequence; a sequence change (the source re-cut while
// we were fetching) restarts the spool from byte 0. Returns the framed
// spool plus the cut and epoch the source stamped on it.
func (f *Follower) fetchSnapshot(ctx context.Context) (body []byte, seq, epoch uint64, err error) {
	var (
		pinned   bool
		lastErr  error
		wantSize = int64(-1)
	)
	for attempt := 0; attempt < reseedFetchAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return body, 0, 0, ctx.Err()
			case <-time.After(reseedRetryPause):
			}
		}
		url := f.opt.Source + ReplSnapshotPath
		if pinned && len(body) > 0 {
			url = fmt.Sprintf("%s?seq=%d&offset=%d", url, seq, len(body))
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return body, 0, 0, retry.Permanent(err)
		}
		resp, err := defaultHTTPClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		srvSeq, srvEpoch, srvSize, herr := parseSnapshotHeaders(resp)
		if herr != nil || resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if herr != nil {
				lastErr = fmt.Errorf("tabled: reseed fetch: %w", herr)
			} else {
				lastErr = fmt.Errorf("tabled: reseed fetch: %s: %s", resp.Status, msg)
			}
			continue
		}
		if !pinned || srvSeq != seq {
			// First contact, or the source re-cut: (re)start the spool.
			body = body[:0]
			seq, epoch, wantSize, pinned = srvSeq, srvEpoch, srvSize, true
		}
		_, err = io.Copy(byteAppender{&body}, resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err // partial bytes kept; next attempt resumes
			continue
		}
		if int64(len(body)) != wantSize {
			lastErr = fmt.Errorf("tabled: reseed fetch: got %d of %d bytes", len(body), wantSize)
			continue
		}
		return body, seq, epoch, nil
	}
	return body, 0, 0, fmt.Errorf("tabled: reseed fetch from %s failed after %d attempts: %w",
		f.opt.Source, reseedFetchAttempts, lastErr)
}

// parseSnapshotHeaders extracts the seq/epoch/size headers from a
// snapshot-transfer response.
func parseSnapshotHeaders(resp *http.Response) (seq, epoch uint64, size int64, err error) {
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, nil
	}
	if seq, err = strconv.ParseUint(resp.Header.Get(ReplSnapshotSeqHeader), 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad %s: %w", ReplSnapshotSeqHeader, err)
	}
	if epoch, err = strconv.ParseUint(resp.Header.Get(ReplEpochHeader), 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad %s: %w", ReplEpochHeader, err)
	}
	if size, err = strconv.ParseInt(resp.Header.Get(ReplSnapshotSizeHeader), 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad %s: %w", ReplSnapshotSizeHeader, err)
	}
	return seq, epoch, size, nil
}

// byteAppender adapts a growing byte slice to io.Writer for io.Copy.
type byteAppender struct{ b *[]byte }

func (a byteAppender) Write(p []byte) (int, error) {
	*a.b = append(*a.b, p...)
	return len(p), nil
}
