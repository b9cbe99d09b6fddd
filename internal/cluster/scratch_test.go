package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pairfn/internal/tabled"
)

// TestNodeKeyFormat pins the sub-batch idempotency keys byte for byte to
// the "%s/%s/%d" form they have always had, the replica's and the digest
// stand-in's included: a client retry that crosses a router upgrade must
// still replay on the members.
func TestNodeKeyFormat(t *testing.T) {
	long := strings.Repeat("k", maxClientKey+1)
	for _, tc := range []struct {
		key, node, suffix string
		nops              int
	}{
		{"client-key", "node-0", "", 128},
		{"client-key", "node-0", "/replica", 1},
		{"", "n", "", 0},
		{digestKey(long), "node-2", "", 1024},
		{digestKey(long), "node-2", "/replica", 7},
	} {
		want := fmt.Sprintf("%s/%s/%d", tc.key, tc.node+tc.suffix, tc.nops)
		if got := string(appendNodeKey([]byte("stale"), tc.key, tc.node, tc.suffix, tc.nops)[5:]); got != want {
			t.Errorf("appendNodeKey(%q, %q, %q, %d) = %q, want %q", tc.key, tc.node, tc.suffix, tc.nops, got, want)
		}
	}
	if got, want := digestKey(long), "sha256:"; !strings.HasPrefix(got, want) || len(got) != len(want)+64 {
		t.Errorf("digestKey = %q, want sha256: and 64 hex digits", got)
	}
}

// TestFrontDoorResultsOwnTheirBytes: routed results alias the member reply
// bodies in the request's Scratch until the reply is written. Concurrent
// batches share the router's pooled member connections (most recently
// used first), so a reply read into memory a connection owns would be
// overwritten by another batch's before it was written out. Every batch
// here writes and reads back values of its own, in both client wires, and
// must see exactly them.
func TestFrontDoorResultsOwnTheirBytes(t *testing.T) {
	rt, _ := startCluster(t, 3, execRows, execCols, Options{})
	front := httptest.NewServer(NewHandler(rt, HandlerOptions{}))
	t.Cleanup(front.Close)
	const perWire, rounds, cells = 4, 30, 24
	var wg sync.WaitGroup
	for _, wire := range []string{tabled.WireJSON, tabled.WireBinary} {
		for g := 0; g < perWire; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &tabled.Client{Base: front.URL, Wire: wire}
				// Each client owns a band of rows; its cells span the
				// members' ranges.
				row := int64(g*2+1) + map[string]int64{tabled.WireJSON: 0, tabled.WireBinary: 16}[wire]
				ops := make([]tabled.Op, 0, 2*cells)
				for r := 0; r < rounds; r++ {
					ops = ops[:0]
					for k := 0; k < cells; k++ {
						x, y := row+int64(k%2)*500, int64(k*40+1)
						v := fmt.Sprintf("%s-%d-%d-%d-%s", wire, g, r, k, strings.Repeat("v", (g+r+k)%17))
						ops = append(ops, tabled.Op{Op: "set", X: x, Y: y, V: v}, tabled.Op{Op: "get", X: x, Y: y})
					}
					res, err := c.Batch(context.Background(), ops)
					if err != nil {
						t.Errorf("%s client %d round %d: %v", wire, g, r, err)
						return
					}
					for i := 1; i < len(ops); i += 2 {
						if res[i].Err != "" || res[i].V != ops[i-1].V {
							t.Errorf("%s client %d round %d: get %d answered %+v, want %q",
								wire, g, r, i/2, res[i], ops[i-1].V)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
