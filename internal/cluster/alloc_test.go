package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/obs"
	"pairfn/internal/retry"
	"pairfn/internal/tabled"
)

// memberProcessEnv makes the test binary serve as one cluster member
// instead of running tests (see startMemberProcesses).
const memberProcessEnv = "PAIRFN_CLUSTER_TEST_MEMBER"

// execRows and execCols size the tables of the allocation test and the
// router benchmark: large enough that an even split of startCluster's
// address space gives every member part of a batch spread over them.
const execRows, execCols = 1024, 1024

func TestMain(m *testing.M) {
	if os.Getenv(memberProcessEnv) != "" {
		os.Exit(serveMemberProcess())
	}
	os.Exit(m.Run())
}

// serveMemberProcess runs a tabled server (the diagonal mapping, as
// startServer's) on a loopback port, prints its base URL, and serves until
// its stdin closes — when the test that started it ends, or dies.
func serveMemberProcess() int {
	f, err := core.ByName("diagonal")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	newStore := func() extarray.Store[string] { return extarray.NewSlabStore() }
	b, err := tabled.NewSharded[string](f, 4, newStore, execRows, execCols, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	go http.Serve(ln, tabled.NewHandler(b, tabled.ServerOptions{}))
	fmt.Printf("http://%s\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	return 0
}

// startMemberProcesses starts n members, each a child process of the test
// binary, and a Router over them split as startCluster splits, configured
// as tabledrouter's defaults configure it: a per-attempt timeout, retries
// and metrics. With the members out of process, an allocation count of
// this process is the router's alone.
func startMemberProcesses(tb testing.TB, n int) *Router {
	tb.Helper()
	bases := make([]string, n)
	for i := range bases {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), memberProcessEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			tb.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			tb.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			stdin.Close()
			cmd.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			tb.Fatalf("member process %d: %v", i, err)
		}
		bases[i] = strings.TrimSpace(line)
	}
	spec, err := EvenSpec("diagonal", bases, 1<<20, 1<<40)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(spec, Options{
		Retry:       &retry.Policy{Base: 50 * time.Millisecond, Max: time.Second, MaxAttempts: 3},
		NodeTimeout: 5 * time.Second,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// execBatches builds a get batch and a set batch of n ops each, spread
// over the whole table so every member of a three-way split owns part of
// both.
func execBatches(n int) (gets, sets []tabled.Op) {
	gets = make([]tabled.Op, n)
	sets = make([]tabled.Op, n)
	for i := range gets {
		x, y := int64(i*7919)%execRows+1, int64(i*104729)%execCols+1
		gets[i] = tabled.Op{Op: "get", X: x, Y: y}
		sets[i] = tabled.Op{Op: "set", X: x, Y: y, V: "steady-state-value"}
	}
	return gets, sets
}

// routerExecuteAllocs is the measured allocation count of one routed get
// or set batch over three members, whatever its size: two per member
// exchange, the objects context.AfterFunc makes to cut the exchange short
// when the request's context ends. The sub-batches but the last start
// their goroutines on functions the Scratch made once, so the fan-out
// itself allocates nothing.
const routerExecuteAllocs = 6

// TestRouterExecuteAllocs is the router's allocation guardrail: with a
// warm Scratch, a routed binary get or set batch over three members
// allocates the same fixed count at 128 ops and at 1024, at most two per
// member sub-batch. The members run in child processes, so their own
// allocations (a set sub-batch's idempotency record, the slab arena
// growing with the values written) do not count.
func TestRouterExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race: sync.Pool randomly drops puts")
	}
	const members = 3
	rt := startMemberProcesses(t, members)
	ctx, cancel := context.WithCancel(context.Background()) // cancellable, as a request's is
	defer cancel()
	sc := new(Scratch)
	for _, n := range []int{128, 1024} {
		gets, sets := execBatches(n)
		plan := rt.part.Partition(gets, 0)
		for m := 0; m < members; m++ {
			if sub, _ := plan.Sub(m); len(sub) == 0 {
				t.Fatalf("%d ops: member %d owns none of the batch", n, m)
			}
		}
		plan.Release()
		// Distinct keys, made up front: a repeated key would replay the
		// members' recorded set responses instead of executing.
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("alloc-%d-%d", n, i)
		}
		next := 0
		for _, tc := range []struct {
			name string
			ops  []tabled.Op
		}{{"get", gets}, {"set", sets}} {
			run := func() {
				for _, r := range rt.Execute(ctx, sc, tc.ops, keys[next]) {
					if r.Err != "" {
						t.Fatalf("%d-op %s batch: %s", n, tc.name, r.Err)
					}
				}
				next++
			}
			run() // warm the scratch, the pools and the connections
			run()
			if a := testing.AllocsPerRun(100, run); a != routerExecuteAllocs {
				t.Errorf("%d-op %s batch: %.2f allocs, want %d (two per member sub-batch)",
					n, tc.name, a, routerExecuteAllocs)
			}
		}
	}
}

// BenchmarkRouterExecute times routed binary get and set batches over
// three members in child processes, so allocs/op are the router's alone.
// Batches carry no client key, as bench/ sends them, so the router makes
// one per batch.
func BenchmarkRouterExecute(b *testing.B) {
	rt := startMemberProcesses(b, 3)
	ctx := context.Background()
	sc := new(Scratch)
	for _, n := range []int{128, 1024} {
		gets, sets := execBatches(n)
		for _, bc := range []struct {
			name string
			ops  []tabled.Op
		}{{"get", gets}, {"set", sets}} {
			b.Run(fmt.Sprintf("%s/ops=%d", bc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt.Execute(ctx, sc, bc.ops, "")
				}
			})
		}
	}
}
