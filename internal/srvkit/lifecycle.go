package srvkit

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pairfn/internal/obs"
)

// A Step is one named shutdown action (final snapshot, WAL close, ...).
type Step struct {
	Name string
	Run  func() error
}

// Lifecycle runs a server from listen to exit code with the shutdown
// sequence both daemons used to hand-roll:
//
//	signal (or ctx cancel) → readiness down → drain with deadline
//	(upgraded connections included) → background tasks stopped → final
//	persist steps → exit code
//
// The ordering contract the old mains got subtly wrong: the Final steps
// run unconditionally once serving has ended — after a missed drain
// deadline (exit code 1, but the snapshot is still saved) and even when
// the listener failed at boot (so an opened WAL is still closed
// cleanly). A slow drain costs the exit code, never the data.
type Lifecycle struct {
	// Server is the srvkit-built http.Server (NewHTTPServer).
	Server *http.Server
	// Listener, when non-nil, is served instead of Server.Addr — the
	// seam tests and socket-activated deployments use.
	Listener net.Listener
	// Ready is flipped false before draining so load balancers watching
	// /readyz stop routing first. May be nil.
	Ready *obs.Flag
	// Logger receives the lifecycle log lines (may be nil).
	Logger *slog.Logger
	// DrainTimeout bounds the graceful drain; ≤ 0 waits indefinitely.
	DrainTimeout time.Duration
	// Background tasks (persist loops, lease sweepers) run for the life
	// of the server; their context is canceled after the drain and Run
	// waits for them to return before the Final steps, so a periodic
	// save can never race the final one.
	Background []func(context.Context)
	// Final steps run in order after serving ends, every one attempted
	// even if an earlier one failed; any failure makes the exit code 1.
	Final []Step
}

// Run serves until ctx is canceled or SIGINT/SIGTERM arrives, executes
// the shutdown sequence, and returns the process exit code: 0 for a
// clean drain with every Final step succeeding, 1 otherwise.
func (lc Lifecycle) Run(ctx context.Context) int {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	bgCtx, bgStop := context.WithCancel(context.Background())
	defer bgStop()
	var bg sync.WaitGroup
	for _, fn := range lc.Background {
		bg.Add(1)
		go func() {
			defer bg.Done()
			fn(bgCtx)
		}()
	}

	// Hijacked connections escape Server.Shutdown; track them so the
	// drain covers their exchanges in flight too.
	upgrades := TrackUpgrades(lc.Server)
	errc := make(chan error, 1)
	go func() {
		if lc.Listener != nil {
			errc <- lc.Server.Serve(lc.Listener)
		} else {
			errc <- lc.Server.ListenAndServe()
		}
	}()

	code := 0
	select {
	case err := <-errc:
		// Serve only returns pre-shutdown on a real failure (port in
		// use, listener error) — never ErrServerClosed here. Fall
		// through to the Final steps so an already-opened WAL/journal
		// still closes cleanly.
		lc.logError("listen", err)
		code = 1
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		// Drain: stop admitting (load balancers see /readyz go 503
		// first), then let in-flight requests finish within the
		// deadline.
		lc.Ready.Set(false)
		if lc.Logger != nil {
			lc.Logger.Info("shutdown: draining", "timeout", lc.DrainTimeout)
		}
		sctx := context.Background()
		if lc.DrainTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(sctx, lc.DrainTimeout)
			defer cancel()
		}
		if err := lc.Server.Shutdown(sctx); err != nil {
			lc.logError("shutdown: drain incomplete", err)
			code = 1
		}
		if err := upgrades.Close(sctx); err != nil {
			lc.logError("shutdown: upgraded connections", err)
			code = 1
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			lc.logError("serve", err)
			code = 1
		}
	}

	// Stop the periodic work (sweepers, persist tickers) and wait it
	// out before the final cut.
	bgStop()
	bg.Wait()

	for _, st := range lc.Final {
		if err := st.Run(); err != nil {
			lc.logError("shutdown: "+st.Name, err)
			code = 1
		} else if lc.Logger != nil {
			lc.Logger.Info("shutdown: " + st.Name + " ok")
		}
	}
	if code == 0 && lc.Logger != nil {
		lc.Logger.Info("shutdown: clean")
	}
	return code
}

func (lc Lifecycle) logError(msg string, err error) {
	if lc.Logger != nil {
		lc.Logger.Error(msg, "err", err)
	}
}
