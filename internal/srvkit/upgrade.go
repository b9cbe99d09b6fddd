package srvkit

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Upgrades tracks the connections a server's handlers took over with an
// HTTP/1.1 Upgrade. net/http forgets a hijacked connection: Shutdown
// neither waits for it nor closes it, so untracked, a drained server would
// keep answering on it, and a final persist could run under an exchange
// still in flight. Lifecycle installs an Upgrades on its server and closes
// it right after the HTTP drain; Upgrade registers each connection with
// the set of the server that accepted it.
type Upgrades struct {
	mu      sync.Mutex
	conns   map[*UpgradedConn]struct{}
	closing bool
	drained chan struct{} // closed once closing and conns is empty
}

type upgradesKey struct{}

// TrackUpgrades installs a connection set on srv, reachable from every
// request context it serves, and returns it. Call it before srv serves.
func TrackUpgrades(srv *http.Server) *Upgrades {
	u := &Upgrades{conns: make(map[*UpgradedConn]struct{}), drained: make(chan struct{})}
	base := srv.BaseContext
	srv.BaseContext = func(l net.Listener) context.Context {
		ctx := context.Background()
		if base != nil {
			ctx = base(l)
		}
		return context.WithValue(ctx, upgradesKey{}, u)
	}
	return u
}

// Close stops the set: idle connections close at once, busy ones as soon
// as their exchange in flight is answered, every connection's Context
// ends, and no connection upgrades afterwards. It returns when every
// connection has closed, or when ctx ends, after closing the stragglers
// mid-exchange, with ctx's error.
func (u *Upgrades) Close(ctx context.Context) error {
	u.mu.Lock()
	if !u.closing {
		u.closing = true
		if len(u.conns) == 0 {
			close(u.drained)
		}
	}
	for c := range u.conns {
		c.cancel()
		if !c.busy {
			c.Conn.Close()
		}
	}
	u.mu.Unlock()
	select {
	case <-u.drained:
		return nil
	case <-ctx.Done():
		u.mu.Lock()
		for c := range u.conns {
			c.Conn.Close()
		}
		u.mu.Unlock()
		return ctx.Err()
	}
}

func (u *Upgrades) add(c *UpgradedConn) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closing {
		return false
	}
	u.conns[c] = struct{}{}
	return true
}

func (u *Upgrades) stopped() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.closing
}

func (u *Upgrades) remove(c *UpgradedConn) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.conns[c]; !ok {
		return
	}
	delete(u.conns, c)
	if u.closing && len(u.conns) == 0 {
		close(u.drained)
	}
}

// setBusy records c's state and reports whether the set still serves.
func (u *Upgrades) setBusy(c *UpgradedConn, busy bool) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	c.busy = busy
	return !u.closing
}

// An UpgradedConn is a connection taken over by Upgrade. Its owner runs
// one exchange at a time through Serve, then closes it.
type UpgradedConn struct {
	net.Conn
	R *bufio.Reader
	W *bufio.Writer

	set         *Upgrades // nil when the server tracks none
	idle, write time.Duration
	busy        bool // guarded by set.mu
	ctx         context.Context
	cancel      context.CancelFunc
}

var (
	errNotUpgrade = errors.New("srvkit: not an upgrade request")
	errDraining   = errors.New("srvkit: server is draining")
)

// Upgrade answers r, an HTTP/1.1 request with "Connection: Upgrade" and
// "Upgrade: proto", with 101 Switching Protocols, takes over its
// connection, and registers it with the server's Upgrades (if it has
// one). On error the request has already been answered. The connection's
// idle read deadline is the server's IdleTimeout, or its ReadTimeout when
// that is zero — the keep-alive reaping net/http applies to its own
// connections — and each exchange's write deadline its WriteTimeout.
func Upgrade(w http.ResponseWriter, r *http.Request, proto string) (*UpgradedConn, error) {
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", proto) {
		w.Header().Set("Upgrade", proto)
		w.Header().Set("Connection", "Upgrade")
		http.Error(w, "upgrade required: this route speaks "+proto, http.StatusUpgradeRequired)
		return nil, errNotUpgrade
	}
	c := &UpgradedConn{}
	c.set, _ = r.Context().Value(upgradesKey{}).(*Upgrades)
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		c.idle, c.write = srv.IdleTimeout, srv.WriteTimeout
		if c.idle == 0 {
			c.idle = srv.ReadTimeout
		}
	}
	if c.set != nil && c.set.stopped() {
		w.Header().Set("Connection", "close")
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return nil, errDraining
	}
	w.Header().Set("Connection", "Upgrade")
	w.Header().Set("Upgrade", proto)
	w.WriteHeader(http.StatusSwitchingProtocols)
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return nil, err
	}
	c.Conn, c.R, c.W = conn, brw.Reader, brw.Writer
	c.ctx, c.cancel = context.WithCancel(r.Context())
	if c.set != nil && !c.set.add(c) {
		c.cancel()
		conn.Close() // the drain began during the handshake
		return nil, errDraining
	}
	return c, nil
}

// Context returns a context that ends when the server starts draining or
// the connection closes. An exchange that may wait for something to
// happen — a long-poll — waits on it, so that a drain does not wait the
// poll out; an exchange that must finish once begun uses the request's
// context instead.
func (c *UpgradedConn) Context() context.Context { return c.ctx }

// Serve runs exchanges on the connection one at a time until the peer
// closes it, the idle deadline reaps it, a drain stops it, a flush fails,
// or exchange reports false. exchange reads one request from c.R, whose
// first byte has arrived, and writes its reply to c.W; Serve flushes the
// reply, also the one written before exchange reports false.
func (c *UpgradedConn) Serve(exchange func() bool) {
	for c.Idle() {
		if _, err := c.R.Peek(1); err != nil {
			return // closed by the peer, reaped, or drained
		}
		if !c.Busy() {
			return
		}
		keep := exchange()
		if err := c.W.Flush(); err != nil || !keep {
			return
		}
	}
}

// Idle marks the connection between exchanges and arms its idle read
// deadline. It reports false once the server is draining: the owner
// closes the connection instead of reading another request.
func (c *UpgradedConn) Idle() bool {
	if c.idle > 0 {
		c.SetReadDeadline(time.Now().Add(c.idle))
	}
	return c.set == nil || c.set.setBusy(c, false)
}

// Busy marks an exchange in flight — call it once the request's first
// byte has arrived — and arms the write deadline for its answer. It
// reports false once the server is draining: the owner closes the
// connection without serving the request.
func (c *UpgradedConn) Busy() bool {
	if c.write > 0 {
		c.SetWriteDeadline(time.Now().Add(c.write))
	}
	return c.set == nil || c.set.setBusy(c, true)
}

// Close closes the connection and releases it from the server's set.
func (c *UpgradedConn) Close() error {
	c.cancel()
	err := c.Conn.Close()
	if c.set != nil {
		c.set.remove(c)
	}
	return err
}

// headerHasToken reports whether any comma-separated element of header
// field name equals token, case-insensitively (RFC 9110 §5.6.1).
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}
