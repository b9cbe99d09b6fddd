package srvkit

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestUpgradeRefusals: a request without the route's Upgrade gets 426
// naming the protocol, and a server whose upgrades are closed answers a
// real upgrade 503 instead of taking the connection over.
func TestUpgradeRefusals(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "test/1")
		if err != nil {
			return
		}
		c.Close()
	}))
	ups := TrackUpgrades(ts.Config)
	ts.Start()
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "test/1" {
		t.Fatalf("plain request: %d, Upgrade %q; want 426 naming test/1", resp.StatusCode, resp.Header.Get("Upgrade"))
	}

	upgrade := func() int {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, Upgrade\r\nUpgrade: test/1\r\n\r\n")
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := upgrade(); code != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %d, want 101", code)
	}
	if err := ups.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := upgrade(); code != http.StatusServiceUnavailable {
		t.Fatalf("upgrade while draining: %d, want 503", code)
	}
}

// TestUpgradedConnContextEndsAtDrain: a handler parked on its
// connection's Context mid-exchange — a long-poll — is released as soon
// as the server starts draining, so Close does not wait the poll out.
func TestUpgradedConnContextEndsAtDrain(t *testing.T) {
	parked := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "test/1")
		if err != nil {
			return
		}
		defer c.Close()
		for c.Idle() {
			if _, err := c.R.ReadByte(); err != nil || !c.Busy() {
				return
			}
			close(parked)
			select {
			case <-c.Context().Done():
			case <-time.After(time.Minute):
			}
			c.W.WriteString("x")
			c.W.Flush()
		}
	}))
	ups := TrackUpgrades(ts.Config)
	ts.Start()
	defer ts.Close()

	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: test/1\r\n\r\n")
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	io.WriteString(c, "?")
	<-parked
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := ups.Close(ctx); err != nil {
		t.Fatalf("Close = %v after %v", err, time.Since(start))
	}
	if b, err := br.ReadByte(); err != nil || b != 'x' {
		t.Fatalf("parked exchange answered %q, %v; want its reply before the close", b, err)
	}
}

// serveEcho starts a tracked server whose one route upgrades to test/1
// and runs Serve with exchange, closing done when Serve returns. dial
// opens an upgraded client connection to it.
func serveEcho(t *testing.T, exchange func(c *UpgradedConn) bool) (ups *Upgrades, dial func() (net.Conn, *bufio.Reader), done chan struct{}) {
	done = make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "test/1")
		if err != nil {
			return
		}
		defer c.Close()
		c.Serve(func() bool { return exchange(c) })
		done <- struct{}{}
	}))
	ups = TrackUpgrades(ts.Config)
	ts.Start()
	t.Cleanup(ts.Close)
	dial = func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: test/1\r\n\r\n")
		br := bufio.NewReader(c)
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade: %v, %v", resp, err)
		}
		return c, br
	}
	return ups, dial, done
}

// waitServe waits for the Serve loop to return.
func waitServe(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestServeFlushesFinalReply: a reply the exchange writes before
// reporting false reaches the peer, and only then does the connection
// close.
func TestServeFlushesFinalReply(t *testing.T) {
	_, dial, done := serveEcho(t, func(c *UpgradedConn) bool {
		c.R.ReadByte()
		c.W.WriteString("last")
		return false
	})
	c, br := dial()
	io.WriteString(c, "?")
	got, err := io.ReadAll(br)
	if err != nil || string(got) != "last" {
		t.Fatalf("read %q, %v; want the final reply, then EOF", got, err)
	}
	waitServe(t, done)
}

// TestServeEndsAtDrain: a drain that starts between exchanges ends the
// loop without running another exchange, even when a request follows.
func TestServeEndsAtDrain(t *testing.T) {
	var calls atomic.Int64
	ups, dial, done := serveEcho(t, func(c *UpgradedConn) bool {
		calls.Add(1)
		b, _ := c.R.ReadByte()
		c.W.WriteByte(b)
		return true
	})
	c, br := dial()
	io.WriteString(c, "a")
	if b, err := br.ReadByte(); err != nil || b != 'a' {
		t.Fatalf("first exchange answered %q, %v", b, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ups.Close(ctx); err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "b")
	waitServe(t, done)
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d exchanges ran, want 1 (none after the drain began)", n)
	}
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("request after the drain answered %q", b)
	}
}

// TestServeEndsAtPeerClose: the peer closing its end ends the loop
// without running an exchange.
func TestServeEndsAtPeerClose(t *testing.T) {
	var calls atomic.Int64
	_, dial, done := serveEcho(t, func(c *UpgradedConn) bool {
		calls.Add(1)
		return true
	})
	c, _ := dial()
	c.Close()
	waitServe(t, done)
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d exchanges ran after the peer closed, want 0", n)
	}
}
