package tabled

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"pairfn/internal/retry"
)

// A ConnPool sends binary batches to one tabled server over persistent
// upgraded connections (docs/WIRE.md §7): the router's sub-batch wire,
// in place of a Client's per-request POST /v1/batch. Each connection
// carries one exchange at a time, so there are no stream IDs: a batch
// takes an idle connection (or dials one), and gives it back once its
// reply has been read. The pool keeps every connection that ended an
// exchange cleanly, so it grows to the caller's concurrency and no
// further; it has no size limit to tune.
//
// Retry and per-attempt Timeout behave as on Client, and a refusal maps
// to the same error and retry class a Client sees for the same HTTP
// status. A pooled connection the server has since closed (a restart,
// the idle reaper, a drain) fails before any reply byte arrives; that
// request cannot have been answered, so it is resent once on a freshly
// dialed connection without spending a retry attempt.
type ConnPool struct {
	base    string
	retry   *retry.Policy
	timeout time.Duration

	mu     sync.Mutex
	idle   []*poolConn // most recently used last
	closed bool
}

// NewConnPool returns a pool for the server at base (e.g.
// "http://10.0.0.7:8080"). retry and timeout are Client's Retry and
// Timeout. It dials nothing until the first batch.
func NewConnPool(base string, retry *retry.Policy, timeout time.Duration) (*ConnPool, error) {
	if _, _, err := upgradeTarget(base, ConnPath, ConnProtocol); err != nil {
		return nil, fmt.Errorf("tabled: connection pool base %q: %w", base, err)
	}
	return &ConnPool{base: base, retry: retry, timeout: timeout}, nil
}

// upgradeTarget returns the TCP address of the server at base (e.g.
// "http://10.0.0.7:8080") and the HTTP/1.1 request that upgrades a
// connection on path to proto.
func upgradeTarget(base, path, proto string) (addr string, req []byte, err error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", nil, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return "", nil, errors.New("want http://host[:port]")
	}
	addr = u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	req = []byte("GET " + path + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + proto + "\r\n\r\n")
	return addr, req, nil
}

// poolConn is one upgraded connection.
type poolConn struct {
	c  net.Conn
	br *bufio.Reader
	// broken marks a connection whose stream state is unknown (an I/O or
	// framing error, or an attempt cut by its context): closed, not
	// pooled.
	broken bool
}

// ErrBehind is the refusal of a follower that has not yet applied the
// position an exchange asked for (ConnPool.Exchange's minPos). It is
// permanent for that follower and request: the caller should read from
// the primary instead.
var ErrBehind = errors.New("tabled: replica behind the requested position")

// BatchWithKey executes ops on the server under the idempotency key and
// returns one result per op, like Client.BatchWithKey over the binary
// wire. The results own their memory.
func (p *ConnPool) BatchWithKey(ctx context.Context, ops []Op, key string) ([]OpResult, error) {
	res, _, err := p.Exchange(ctx, ops, key, 0)
	return res, err
}

// Exchange is BatchWithKey with the exchange's positions (docs/WIRE.md
// §7). A nonzero minPos makes a follower that has applied fewer WAL
// records refuse the batch with an error wrapping ErrBehind. pos is the
// server's WAL position covering a batch that writes, 0 for one that
// only reads: a caller that keeps the highest pos it was answered can
// pass it as a later read's minPos to read its own writes.
func (p *ConnPool) Exchange(ctx context.Context, ops []Op, key string, minPos uint64) (res []OpResult, pos uint64, err error) {
	if len(key) > maxExchangeKey {
		return nil, 0, fmt.Errorf("tabled: idempotency key of %d bytes exceeds %d", len(key), maxExchangeKey)
	}
	buf := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(buf)
	env, err := appendExchangeRequest((*buf)[:0], key, minPos, ops)
	if err != nil {
		return nil, 0, err
	}
	*buf = env
	if p.retry == nil {
		return p.attempt(ctx, env, len(ops))
	}
	err = p.retry.Do(ctx, func(ctx context.Context) error {
		r, rpos, err := p.attempt(ctx, env, len(ops))
		if err != nil {
			return err
		}
		res, pos = r, rpos
		return nil
	})
	return res, pos, err
}

// Close closes the idle connections; ones in use close when their
// exchange ends. Batches still work after Close, each on a connection of
// its own.
func (p *ConnPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, pc := range idle {
		pc.c.Close()
	}
}

// attempt runs one exchange of the request envelope env.
func (p *ConnPool) attempt(ctx context.Context, env []byte, nops int) ([]OpResult, uint64, error) {
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	pc, pooled := p.take()
	if pc == nil {
		var err error
		if pc, err = p.dial(ctx); err != nil {
			return nil, 0, err
		}
	}
	res, pos, answered, err := p.roundTrip(ctx, pc, env, nops)
	if err != nil && pooled && !answered && ctx.Err() == nil {
		pc.c.Close()
		if pc, err = p.dial(ctx); err != nil {
			return nil, 0, err
		}
		res, pos, _, err = p.roundTrip(ctx, pc, env, nops)
	}
	p.give(pc)
	return res, pos, err
}

// take pops the most recently used idle connection, or returns nil.
func (p *ConnPool) take() (*poolConn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil, false
	}
	pc := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return pc, true
}

// give returns pc to the pool, or closes it.
func (p *ConnPool) give(pc *poolConn) {
	p.mu.Lock()
	if !pc.broken && !p.closed {
		p.idle = append(p.idle, pc)
		pc = nil
	}
	p.mu.Unlock()
	if pc != nil {
		pc.c.Close()
	}
}

// aLongTimeAgo is a deadline in the past: setting it fails the
// connection's blocked and future I/O at once.
var aLongTimeAgo = time.Unix(1, 0)

// dial opens a connection and upgrades it.
func (p *ConnPool) dial(ctx context.Context) (*poolConn, error) {
	c, br, err := dialUpgrade(ctx, p.base, ConnPath, ConnProtocol)
	if err != nil {
		return nil, err
	}
	return &poolConn{c: c, br: br}, nil
}

// dialUpgrade connects to the server at base and upgrades the connection
// on path to proto, all bounded by ctx. It returns the connection and its
// reader positioned after the 101 answer. Any other answer is an error
// carrying the status as a Client would report it; a base that is not an
// http:// URL is a permanent error.
func dialUpgrade(ctx context.Context, base, path, proto string) (net.Conn, *bufio.Reader, error) {
	addr, req, err := upgradeTarget(base, path, proto)
	if err != nil {
		return nil, nil, retry.Permanent(fmt.Errorf("tabled: %q: %w", base, err))
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	br, err := handshake(c, req, base, proto)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, br, nil
}

func handshake(c net.Conn, req []byte, base, proto string) (*bufio.Reader, error) {
	if _, err := c.Write(req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("upgrading %s to %s: %w", base, proto,
			remoteStatusError(resp.StatusCode, resp.Status, msg))
	}
	if resp.Header.Get("Upgrade") != proto {
		return nil, fmt.Errorf("%w: upgrading %s: server switched to %q, want %q",
			ErrRemote, base, resp.Header.Get("Upgrade"), proto)
	}
	return br, nil
}

// maxRefusal bounds the refusal text a client accepts; longer means the
// stream is not speaking the protocol.
const maxRefusal = 64 << 10

// roundTrip sends env on pc and reads its reply. answered reports whether
// any reply byte arrived. Any error other than a well-formed refusal
// leaves pc broken.
func (p *ConnPool) roundTrip(ctx context.Context, pc *poolConn, env []byte, nops int) (res []OpResult, pos uint64, answered bool, err error) {
	stop := context.AfterFunc(ctx, func() { pc.c.SetDeadline(aLongTimeAgo) })
	defer func() {
		if !stop() {
			// The deadline is poisoned: the connection is done either way,
			// and an I/O error it caused is really the context's.
			pc.broken = true
			if err != nil {
				err = p.exchangeErr(ctx.Err())
			}
		}
	}()
	if _, err := pc.c.Write(env); err != nil {
		pc.broken = true
		return nil, 0, false, p.exchangeErr(err)
	}
	if _, err := pc.br.Peek(1); err != nil {
		pc.broken = true
		return nil, 0, false, p.exchangeErr(err)
	}
	status, pos, n, err := readReplyHeader(pc.br)
	if err != nil {
		pc.broken = true
		return nil, 0, true, p.exchangeErr(err)
	}
	if (status != http.StatusOK && n > maxRefusal) || n > wireHeaderSize+MaxWirePayload {
		pc.broken = true
		return nil, 0, true, fmt.Errorf("%w: exchange reply %d with a %d-byte body", ErrRemote, status, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(pc.br, body); err != nil {
		pc.broken = true
		return nil, 0, true, p.exchangeErr(err)
	}
	switch status {
	case http.StatusOK:
	case http.StatusPreconditionFailed:
		return nil, 0, true, retry.Permanent(fmt.Errorf("%w: %s: %s", ErrBehind, p.base, body))
	case http.StatusRequestEntityTooLarge:
		pc.broken = true // the server closes after refusing to read a request
		fallthrough
	default:
		return nil, 0, true, remoteStatusError(int(status), strconv.Itoa(int(status))+" "+http.StatusText(int(status)), body)
	}
	// The body is freshly owned by this reply, so results may alias it.
	results, err := DecodeBatchResponse(body, nil, 0)
	if err != nil {
		return nil, 0, true, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
	}
	if len(results) != nops {
		return nil, 0, true, fmt.Errorf("%w: %d results for %d ops", ErrRemote, len(results), nops)
	}
	return results, pos, true, nil
}

// exchangeErr names the server in a connection-level failure.
func (p *ConnPool) exchangeErr(err error) error {
	return fmt.Errorf("exchange with %s: %w", p.base, err)
}

// appendExchangeRequest appends the request envelope of one exchange:
// the key's length and bytes, the minimum position, then the §2 request
// frame for ops.
func appendExchangeRequest(dst []byte, key string, minPos uint64, ops []Op) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, minPos)
	return AppendBatchRequest(dst, ops)
}

// readReplyHeader reads a reply's status, position and body length.
func readReplyHeader(br *bufio.Reader) (status, pos, n uint64, err error) {
	if status, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, err
	}
	if pos, err = binary.ReadUvarint(br); err == nil {
		n, err = binary.ReadUvarint(br)
	}
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return status, pos, n, err
}
