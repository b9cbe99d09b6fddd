package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pairfn/internal/tabled"
)

// TestCallNodeDecisionTable drives callNode's decision table (DESIGN
// §5d/§5e) row by row, with the checker's observations set directly: a
// set and a get sent to the range must each be served where the row says,
// or refused with the row's error. The last case fails the sub-batch of
// reads left after the write was refused, so every op keeps its own
// result.
func TestCallNodeDecisionTable(t *testing.T) {
	ctx := context.Background()
	primary := startServer(t, 40, 40, tabled.ServerOptions{})
	replica := startServer(t, 40, 40, tabled.ServerOptions{})
	nodes := map[string]*tabled.Client{
		"primary": {Base: primary.URL},
		"replica": {Base: replica.URL},
	}
	for name, c := range nodes {
		if err := c.Set(ctx, tabled.Cell[string]{X: 1, Y: 1, V: name}); err != nil {
			t.Fatal(err)
		}
	}
	newRouter := func(replicaURL string) *Router {
		spec := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{
			Name: "n0", Base: primary.URL, Replica: replicaURL, Lo: 1, Hi: 1 << 40,
		}}}
		rt, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	observe := func(rt *Router, pri State, fenced bool, rep State, promoted bool) {
		p := &rt.Health().pairs[0]
		p.pri.Store(&observation{state: pri, hasEpoch: true}) // epoch 0 observed
		p.rep.Store(&observation{state: rep, promoted: promoted})
		p.max.Store(0)
		if fenced {
			p.max.Store(1)
		}
	}
	// check fails the test unless an op's result matches want: either
	// the name of the node that served it (served reports it) or one of
	// these refusals, matched on its prefix.
	refusals := map[string]string{
		"fenced":       nodeFencedMark + "n0: ",
		"not promoted": nodeAwaitingPromotionErr("n0"),
		"read-only":    nodeReadOnlyErr("n0"),
		"down":         nodeUnavailablePrefix + "unavailable: n0: ",
	}
	check := func(t *testing.T, op, want string, got tabled.OpResult, served func() string) {
		t.Helper()
		if prefix, ok := refusals[want]; ok {
			if !strings.HasPrefix(got.Err, prefix) {
				t.Errorf("%s: %+v, want the %q refusal", op, got, want)
			}
			return
		}
		if got.Err != "" || served() != want {
			t.Errorf("%s: %+v served by %q, want %q", op, got, served(), want)
		}
	}

	rt := newRouter(replica.URL)
	for i, row := range []struct {
		pri      State
		fenced   bool
		rep      State
		promoted bool
		set, get string
	}{
		{StateHealthy, false, StateHealthy, true, "primary", "primary"},
		{StateHealthy, true, StateHealthy, true, "replica", "replica"},
		{StateHealthy, true, StateDegraded, false, "fenced", "replica"},
		{StateHealthy, true, StateDown, false, "fenced", "fenced"},
		{StateDegraded, true, StateDown, false, "fenced", "fenced"},
		{StateDegraded, true, StateHealthy, true, "replica", "replica"},
		{StateDegraded, false, StateHealthy, true, "replica", "replica"},
		{StateDegraded, false, StateHealthy, false, "not promoted", "replica"},
		{StateDegraded, false, StateDown, false, "read-only", "primary"},
		{StateDown, false, StateHealthy, true, "replica", "replica"},
		{StateDown, false, StateDegraded, false, "not promoted", "replica"},
		{StateDown, false, StateDown, false, "down", "down"},
		{StateDown, true, StateDown, false, "down", "down"},
	} {
		name := fmt.Sprintf("primary %v fenced=%v, replica %v promoted=%v", row.pri, row.fenced, row.rep, row.promoted)
		t.Run(name, func(t *testing.T) {
			observe(rt, row.pri, row.fenced, row.rep, row.promoted)
			v := fmt.Sprintf("row-%d", i)
			res := rt.Execute(ctx, new(Scratch), []tabled.Op{
				{Op: "set", X: 2, Y: 2, V: v},
				{Op: "get", X: 1, Y: 1},
			}, "")
			check(t, "set", row.set, res[0], func() string {
				for name, c := range nodes {
					if got, _, _ := c.Get(ctx, 2, 2); got == v {
						return name
					}
				}
				return ""
			})
			check(t, "get", row.get, res[1], func() string { return res[1].V })
		})
	}

	t.Run("reads left after a refused write fail in place", func(t *testing.T) {
		dead := startServer(t, 40, 40, tabled.ServerOptions{})
		dead.Close()
		rt := newRouter(dead.URL)
		observe(rt, StateDegraded, false, StateDegraded, false)
		res := rt.Execute(ctx, new(Scratch), []tabled.Op{
			{Op: "set", X: 2, Y: 2, V: "lost"},
			{Op: "get", X: 1, Y: 1},
			{Op: "get", X: 1, Y: 1},
		}, "")
		none := func() string { return "" }
		check(t, "set", "not promoted", res[0], none)
		check(t, "get", "down", res[1], none)
		check(t, "get", "down", res[2], none)
	})
}
