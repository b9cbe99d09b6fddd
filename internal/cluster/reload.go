package cluster

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
)

// A Reloader owns the live *Router for a spec-file-driven deployment and
// rebuilds it when the file changes — tabledrouter's live-reconfiguration
// seam. It is a RouterSource: the front door resolves Router() per
// request, so a swap takes effect on the next batch with no listener or
// handler restart. The old router is closed, not drained: its in-flight
// sub-batches finish against it (soft state only — nothing to migrate),
// its idle member connections close at once, and its health checker is
// stopped once the new one is running.
//
// Metrics survive reloads because obs.Registry families are get-or-create:
// a rebuilt router re-acquires the same counters for unchanged node names,
// so rates keep accumulating across swaps. Gauges for nodes that left the
// spec go stale at their last value — a spec shrink is rare enough that a
// process restart is the supported way to clear them.
type Reloader struct {
	path string
	opt  Options
	cur  atomic.Pointer[Router]

	mu     sync.Mutex // serializes Reload; guards runCtx/cancel
	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewReloader loads the spec file and builds the initial router. opt is
// reused verbatim for every rebuild.
func NewReloader(path string, opt Options) (*Reloader, error) {
	spec, err := LoadSpec(path)
	if err != nil {
		return nil, err
	}
	rt, err := New(spec, opt)
	if err != nil {
		return nil, err
	}
	rl := &Reloader{path: path, opt: opt}
	rl.cur.Store(rt)
	return rl, nil
}

// Router returns the live router (RouterSource).
func (rl *Reloader) Router() *Router { return rl.cur.Load() }

// Path returns the watched spec file.
func (rl *Reloader) Path() string { return rl.path }

// Run drives the live router's health checker until ctx ends — wire it as
// the lifecycle background task in place of Router.Health().Run. Reloads
// before Run start their checker when Run begins; reloads after hand off
// from the old checker to the new one.
func (rl *Reloader) Run(ctx context.Context) {
	rl.mu.Lock()
	rl.runCtx = ctx
	rl.startLocked(rl.cur.Load())
	rl.mu.Unlock()
	<-ctx.Done()
	rl.mu.Lock()
	if rl.cancel != nil {
		rl.cancel()
		rl.cancel = nil
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}

// startLocked launches rt's checker under a cancelable child of runCtx
// (no-op before Run provides one).
func (rl *Reloader) startLocked(rt *Router) {
	if rl.runCtx == nil {
		return
	}
	cctx, cancel := context.WithCancel(rl.runCtx)
	rl.cancel = cancel
	rl.wg.Add(1)
	go func() {
		defer rl.wg.Done()
		rt.Health().Run(cctx)
	}()
}

// Reload re-reads the spec file and, if it changed, swaps in a freshly
// built router. The new router takes over the old one's written positions
// and kept pairs' max-epoch latches (Router.inherit); then its checker
// probes every member once before the swap, so the first routed batch
// sees real states, not the optimistic boot defaults, and no fence lapses.
// An invalid or unreadable file is an error and the old router keeps
// serving — a botched edit can never take the front door down.
func (rl *Reloader) Reload(ctx context.Context) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	spec, err := LoadSpec(rl.path)
	if err != nil {
		return err
	}
	old := rl.cur.Load()
	if reflect.DeepEqual(spec, old.Spec()) {
		return nil // spurious trigger (touch, repeated SIGHUP)
	}
	rt, err := New(spec, rl.opt)
	if err != nil {
		return err
	}
	rt.inherit(old)
	rt.Health().CheckNow(ctx)
	rl.cur.Store(rt)
	old.Close()
	if rl.cancel != nil {
		rl.cancel()
		rl.cancel = nil
	}
	rl.startLocked(rt)
	if rl.opt.Logger != nil {
		rl.opt.Logger.Info("cluster: spec reloaded",
			"path", rl.path, "nodes", len(spec.Nodes))
	}
	return nil
}
