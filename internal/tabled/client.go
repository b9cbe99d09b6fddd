package tabled

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pairfn/internal/retry"
)

// WireBinary selects the length-prefixed binary batch codec (docs/WIRE.md)
// on a Client; WireJSON (or empty) selects JSON. Binary batches are
// encoded into pooled buffers and pipelined over the same persistent
// connections — the transport-side half of the zero-allocation batch path.
const (
	WireJSON   = "json"
	WireBinary = "binary"
)

// Client is the typed Go client for a tabled server. The zero HTTP field
// uses a shared pooled transport (see DefaultTransport); Base is e.g.
// "http://127.0.0.1:8080". Wire selects the /v1/batch encoding: WireJSON
// (the default) or WireBinary.
//
// With Retry set, Batch (and everything built on it) retries transport
// failures and retryable statuses (5xx, 408, 429) under jittered
// exponential backoff. Every Batch carries a fresh Idempotency-Key that is
// REUSED across its retries, so a replayed batch whose original ack was
// lost is answered from the server's idempotency cache instead of being
// applied (and WAL-logged) a second time. 4xx responses are permanent and
// fail immediately.
type Client struct {
	Base  string
	HTTP  *http.Client
	Retry *retry.Policy
	Wire  string // WireJSON ("" = JSON) or WireBinary
	// Timeout, when positive, bounds each individual batch attempt with its
	// own deadline (derived from the call's context). Retries get a fresh
	// deadline per attempt, so one slow attempt doesn't consume the whole
	// retry budget — the per-call deadline hook the cluster router uses to
	// keep a stuck member from stalling a fan-out.
	Timeout time.Duration
}

// DefaultTransport is the pooled transport zero-HTTP Clients share.
// http.DefaultTransport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so a loadgen driving N ≫ 2 concurrent
// batches at one server closes and re-dials N−2 connections per round —
// measurable dial/TLS churn on exactly the hot path the binary codec
// speeds up. Pinning MaxIdleConnsPerHost at MaxConcurrentBatchConns keeps
// every worker's connection alive between batches (the regression test
// counts dials).
var DefaultTransport = newPooledTransport()

// MaxConcurrentBatchConns is the per-host idle-connection pool size of
// DefaultTransport: the number of concurrent Batch streams one process can
// sustain without re-dialing between batches.
const MaxConcurrentBatchConns = 256

func newPooledTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = MaxConcurrentBatchConns
	t.MaxIdleConns = MaxConcurrentBatchConns
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// defaultHTTPClient wraps DefaultTransport for zero-HTTP Clients.
var defaultHTTPClient = &http.Client{Transport: DefaultTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// frameBufPool recycles binary request frames across Batch calls: encoding
// reuses the pooled capacity, so a steady-state binary Batch allocates
// nothing for its request body.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// NewIdemKey returns a fresh 128-bit idempotency key, for callers that
// coordinate replay protection across several servers — the cluster router
// derives per-node keys from one of these when the client didn't send its
// own.
func NewIdemKey() string { return newIdemKey() }

// newIdemKey returns a fresh 128-bit idempotency key.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; keys only need
		// uniqueness, so fail open with an empty key (no replay cache).
		return ""
	}
	return hex.EncodeToString(b[:])
}

// retryableStatus reports whether an HTTP status is worth retrying: server
// errors and explicit backpressure, but never client errors.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusRequestTimeout || code == http.StatusTooManyRequests
}

// remoteStatusError is the error for a batch the server answered with a
// non-200 status — ErrRemote carrying the status line and the refusal
// text — marked retry.Permanent unless the status is retryable. The HTTP
// client and the upgraded connection pool share it, so a refusal reads
// and retries the same on both wires.
func remoteStatusError(code int, status string, msg []byte) error {
	err := fmt.Errorf("%w: %s: %s", ErrRemote, status, bytes.TrimSpace(msg))
	if !retryableStatus(code) {
		return retry.Permanent(err)
	}
	return err
}

// retryAfter parses a Retry-After header value in either RFC 9110 form —
// delta-seconds ("2") or HTTP-date — into a wait duration. now is a seam
// for tests.
func retryAfter(v string, now func() time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now())
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Batch executes ops in order on the server and returns one result per op.
// A non-nil error means the request itself failed (transport or non-200,
// after any configured retries); per-op failures are reported in each
// OpResult.Err.
func (c *Client) Batch(ctx context.Context, ops []Op) ([]OpResult, error) {
	return c.BatchWithKey(ctx, ops, newIdemKey())
}

// BatchWithKey is Batch with a caller-supplied Idempotency-Key: the key is
// sent on every attempt, so the server's replay cache absorbs retries from
// any layer that knows the key — a proxy re-fanning a client's retried
// batch reuses the client's key and the member replays instead of
// re-applying. An empty key sends no header (retries then unprotected).
func (c *Client) BatchWithKey(ctx context.Context, ops []Op, key string) ([]OpResult, error) {
	var (
		body        []byte
		contentType string
		err         error
	)
	if c.Wire == WireBinary {
		buf := frameBufPool.Get().(*[]byte)
		defer frameBufPool.Put(buf)
		*buf, err = AppendBatchRequest((*buf)[:0], ops)
		if err != nil {
			return nil, err
		}
		body, contentType = *buf, ContentTypeBinary
	} else {
		body, err = json.Marshal(BatchRequest{Ops: ops})
		if err != nil {
			return nil, err
		}
		contentType = "application/json"
	}
	if c.Retry == nil {
		return c.batchOnce(ctx, body, contentType, key, len(ops))
	}
	var res []OpResult
	err = c.Retry.Do(ctx, func(ctx context.Context) error {
		r, err := c.batchOnce(ctx, body, contentType, key, len(ops))
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	return res, err
}

// batchOnce performs one POST /v1/batch attempt. Non-retryable statuses
// come back marked retry.Permanent.
func (c *Client) batchOnce(ctx context.Context, body []byte, contentType, key string, nops int) ([]OpResult, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err // transport: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := remoteStatusError(resp.StatusCode, resp.Status, msg)
		if retry.IsPermanent(err) {
			return nil, err
		}
		if d, ok := retryAfter(resp.Header.Get("Retry-After"), time.Now); ok {
			// The server named when retrying can succeed (a 429's admission
			// window, a 503's drain estimate); backing off blind earlier
			// just burns attempts against a closed door.
			return nil, retry.After(err, d)
		}
		return nil, err
	}
	if contentType == ContentTypeBinary {
		// Read the whole frame, then decode aliasing it: the buffer is
		// freshly owned by this response, so the results stay valid for as
		// long as the caller keeps them — no pooling on the decode side.
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("%w: reading response: %v", ErrRemote, err)
		}
		results, err := DecodeBatchResponse(frame, nil, 0)
		if err != nil {
			// A truncated or garbled frame fails the CRC; retrying is safe
			// because the idempotency key replays the recorded response.
			return nil, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
		}
		if len(results) != nops {
			return nil, fmt.Errorf("%w: %d results for %d ops", ErrRemote, len(results), nops)
		}
		return results, nil
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		// A truncated or garbled response body: retrying is safe because
		// the idempotency key replays the recorded response.
		return nil, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
	}
	if len(br.Results) != nops {
		return nil, fmt.Errorf("%w: %d results for %d ops", ErrRemote, len(br.Results), nops)
	}
	return br.Results, nil
}

// Set stores every cell, returning the first per-cell failure.
func (c *Client) Set(ctx context.Context, cells ...Cell[string]) error {
	ops := make([]Op, len(cells))
	for i, cell := range cells {
		ops[i] = Op{Op: "set", X: cell.X, Y: cell.Y, V: cell.V}
	}
	res, err := c.Batch(ctx, ops)
	if err != nil {
		return err
	}
	for i, r := range res {
		if r.Err != "" {
			return fmt.Errorf("%w: set (%d, %d): %s", ErrRemote, cells[i].X, cells[i].Y, r.Err)
		}
	}
	return nil
}

// Get reads one cell.
func (c *Client) Get(ctx context.Context, x, y int64) (v string, found bool, err error) {
	res, err := c.Batch(ctx, []Op{{Op: "get", X: x, Y: y}})
	if err != nil {
		return "", false, err
	}
	if res[0].Err != "" {
		return "", false, fmt.Errorf("%w: get (%d, %d): %s", ErrRemote, x, y, res[0].Err)
	}
	return res[0].V, res[0].Found, nil
}

// GetBatch reads many cells in one request; results are in key order.
func (c *Client) GetBatch(ctx context.Context, keys []Pos) ([]OpResult, error) {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Op: "get", X: k.X, Y: k.Y}
	}
	return c.Batch(ctx, ops)
}

// Resize sets the logical dimensions.
func (c *Client) Resize(ctx context.Context, rows, cols int64) error {
	res, err := c.Batch(ctx, []Op{{Op: "resize", Rows: rows, Cols: cols}})
	if err != nil {
		return err
	}
	if res[0].Err != "" {
		return fmt.Errorf("%w: resize to %d×%d: %s", ErrRemote, rows, cols, res[0].Err)
	}
	return nil
}

// Dims returns the current logical dimensions.
func (c *Client) Dims(ctx context.Context) (rows, cols int64, err error) {
	res, err := c.Batch(ctx, []Op{{Op: "dims"}})
	if err != nil {
		return 0, 0, err
	}
	return res[0].Rows, res[0].Cols, nil
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
	var reply StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Snapshot asks the server to persist now (POST /v1/snapshot).
func (c *Client) Snapshot(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: %s: %s", ErrRemote, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}
