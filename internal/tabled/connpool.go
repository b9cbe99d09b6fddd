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
	"os"
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
	idle   []*clientConn // most recently used last
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

// ErrBehind is the refusal of a follower that has not yet applied the
// position an exchange asked for (ConnPool.Exchange's minPos). It is
// permanent for that follower and request: the caller should read from
// the primary instead.
var ErrBehind = errors.New("tabled: replica behind the requested position")

// BatchWithKey executes ops on the server under the idempotency key and
// returns one result per op, like Client.BatchWithKey over the binary
// wire. The results own their memory.
func (p *ConnPool) BatchWithKey(ctx context.Context, ops []Op, key string) ([]OpResult, error) {
	res, _, err := p.Exchange(ctx, new(ExchangeBuf), ops, []byte(key), 0)
	return res, err
}

// An ExchangeBuf is the memory one Exchange works in: the request
// envelope, the reply body, and the results decoded from it. The caller
// owns it, and the results' values and error strings alias its body: they
// stay valid until the ExchangeBuf is used again. The zero value is ready
// for use.
type ExchangeBuf struct {
	env  []byte
	body []byte
	res  []OpResult
}

// Exchange is BatchWithKey with the exchange's positions (docs/WIRE.md
// §7), working in xb: the returned results alias xb until its next use. A
// nonzero minPos makes a follower that has applied fewer WAL records
// refuse the batch with an error wrapping ErrBehind. pos is the server's
// WAL position covering a batch that writes, 0 for one that only reads: a
// caller that keeps the highest pos it was answered can pass it as a later
// read's minPos to read its own writes.
func (p *ConnPool) Exchange(ctx context.Context, xb *ExchangeBuf, ops []Op, key []byte, minPos uint64) (res []OpResult, pos uint64, err error) {
	if len(key) > maxExchangeKey {
		return nil, 0, fmt.Errorf("tabled: idempotency key of %d bytes exceeds %d", len(key), maxExchangeKey)
	}
	if xb.env, err = appendExchangeRequest(xb.env[:0], key, minPos, ops); err != nil {
		return nil, 0, err
	}
	if p.retry == nil {
		return p.attempt(ctx, xb, len(ops))
	}
	err = p.retry.Do(ctx, func(ctx context.Context) error {
		r, rpos, err := p.attempt(ctx, xb, len(ops))
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
		pc.close()
	}
}

// attempt runs one exchange of the request envelope in xb. The timeout is
// a deadline on the connection rather than a derived context, so a steady
// exchange makes no timer and no context; only a dial takes one.
func (p *ConnPool) attempt(ctx context.Context, xb *ExchangeBuf, nops int) ([]OpResult, uint64, error) {
	var deadline time.Time
	if p.timeout > 0 {
		deadline = time.Now().Add(p.timeout)
	}
	pc, pooled := p.take()
	if pc == nil {
		var err error
		if pc, err = p.dial(ctx, deadline); err != nil {
			return nil, 0, err
		}
	}
	res, pos, answered, err := p.roundTrip(ctx, pc, xb, nops, deadline)
	if err != nil && pooled && !answered && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
		if pc, err = p.dial(ctx, deadline); err != nil {
			return nil, 0, err
		}
		res, pos, _, err = p.roundTrip(ctx, pc, xb, nops, deadline)
	}
	p.give(pc)
	return res, pos, err
}

// dial connects a new connection, by deadline when it is not zero.
func (p *ConnPool) dial(ctx context.Context, deadline time.Time) (*clientConn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	return dialUpgrade(ctx, p.base, ConnPath, ConnProtocol)
}

// take pops the most recently used idle connection, or returns nil.
func (p *ConnPool) take() (*clientConn, bool) {
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
func (p *ConnPool) give(pc *clientConn) {
	p.mu.Lock()
	if !pc.broken && !p.closed {
		p.idle = append(p.idle, pc)
		pc = nil
	}
	p.mu.Unlock()
	pc.close()
}

// aLongTimeAgo is a deadline in the past: setting it fails the
// connection's blocked and future I/O at once.
var aLongTimeAgo = time.Unix(1, 0)

// A clientConn is the client end of an upgraded connection, on either
// wire (docs/WIRE.md §7, §8): it sends a request and reads the reply
// envelope both wires share. One goroutine uses it at a time.
type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	// poison fails the connection's I/O at once; made once per connection
	// for context.AfterFunc, which would otherwise take a fresh closure
	// per round trip.
	poison func()
	// broken marks a connection whose stream state is unknown (an I/O or
	// framing error, or an exchange cut by its context); it is closed.
	broken bool
}

// dialUpgrade connects to the server at base and upgrades the connection
// on path to proto, all bounded by ctx. Any answer but 101 is an error
// carrying the status as a Client would report it; a base that is not an
// http:// URL is a permanent error.
func dialUpgrade(ctx context.Context, base, path, proto string) (*clientConn, error) {
	addr, req, err := upgradeTarget(base, path, proto)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("tabled: %q: %w", base, err))
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	br, err := handshake(c, req, base, proto)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	cc := &clientConn{c: c, br: br}
	cc.poison = func() { cc.c.SetDeadline(aLongTimeAgo) }
	return cc, nil
}

// roundTrip sends req and reads its reply (see readReply): the status,
// the header fields into fields, and a body of at most limit bytes on a
// 200. The body lands in buf's memory, grown when short; the caller owns
// buf, never the connection, so a body stays the caller's once the
// connection goes back to a pool. answered reports whether any reply byte
// arrived. ctx ending fails the exchange at once with ctx's error. Any
// error, and ctx ending, leaves the connection broken.
func (cc *clientConn) roundTrip(ctx context.Context, req []byte, fields []uint64, limit int, buf []byte) (status int, body []byte, answered bool, err error) {
	stop := context.AfterFunc(ctx, cc.poison)
	defer func() {
		// A poisoned deadline ends the connection either way, and an I/O
		// error it caused is really the context's.
		poisoned := !stop()
		if poisoned && err != nil {
			err = ctx.Err()
		}
		if poisoned || err != nil {
			cc.close()
		}
	}()
	if _, err := cc.c.Write(req); err != nil {
		return 0, nil, false, err
	}
	if _, err := cc.br.Peek(1); err != nil {
		return 0, nil, false, err
	}
	status, body, err = readReply(cc.br, fields, limit, buf)
	return status, body, true, err
}

// close closes the connection and marks it broken. It is a no-op on a
// nil or already broken connection.
func (cc *clientConn) close() {
	if cc != nil && !cc.broken {
		cc.broken = true
		cc.c.Close()
	}
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

// roundTrip sends xb's envelope on pc and decodes its reply into xb, all
// by deadline when it is not zero. answered reports whether any reply
// byte arrived. Any error other than a well-formed refusal leaves pc
// broken.
func (p *ConnPool) roundTrip(ctx context.Context, pc *clientConn, xb *ExchangeBuf, nops int, deadline time.Time) (res []OpResult, pos uint64, answered bool, err error) {
	if !deadline.IsZero() {
		pc.c.SetDeadline(deadline)
	}
	var hdr [1]uint64 // position
	status, body, answered, err := pc.roundTrip(ctx, xb.env, hdr[:], wireHeaderSize+MaxWirePayload, xb.body)
	if body != nil {
		xb.body = body
	}
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = context.DeadlineExceeded // the attempt's timeout
		}
		return nil, 0, answered, fmt.Errorf("exchange with %s: %w", p.base, err)
	}
	switch status {
	case http.StatusOK:
	case http.StatusPreconditionFailed:
		return nil, 0, true, retry.Permanent(fmt.Errorf("%w: %s: %s", ErrBehind, p.base, body))
	case http.StatusRequestEntityTooLarge:
		pc.close() // the server closes after refusing to read a request
		fallthrough
	default:
		return nil, 0, true, remoteStatusError(status, statusText(status), body)
	}
	// The body is the caller's (xb), so results may alias it; nops bounds
	// the count before the results grow.
	results, err := DecodeBatchResponse(body, xb.res[:0], nops)
	if err != nil {
		return nil, 0, true, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
	}
	xb.res = results
	if len(results) != nops {
		return nil, 0, true, fmt.Errorf("%w: %d results for %d ops", ErrRemote, len(results), nops)
	}
	return results, hdr[0], true, nil
}

// appendExchangeRequest appends the request envelope of one exchange:
// the key's length and bytes, the minimum position, then the §2 request
// frame for ops.
func appendExchangeRequest[K string | []byte](dst []byte, key K, minPos uint64, ops []Op) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, minPos)
	return AppendBatchRequest(dst, ops)
}
