package srvkit

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
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
