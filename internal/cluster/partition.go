package cluster

import (
	"fmt"
	"sync"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
	"pairfn/internal/tabled"
)

// Op routing classes. Addressed ops (set/get) go to the owner of their PF
// address; broadcast ops (resize/stats) go to every node, because every
// member keeps the full logical dimensions and per-member stats aggregate
// exactly (see Plan.MergeInto); anycast ops (dims, and set/get whose
// position the mapping rejects) go to one designated node — any member can
// answer dims, and a rejected position is forwarded so the node produces
// the per-op error bit-identically to single-node execution. Unknown op
// kinds are answered locally with the server's own error text: the binary
// node wire cannot even encode them, and forwarding would let one junk op
// poison a whole sub-batch.
const (
	classAddressed = iota
	classBroadcast
	classAnycast
	classLocal // answered by the router (address outside every range)
)

// A Partitioner lays batches out by owning node: the cluster-level twin of
// the Sharded counting-sort planner. Addresses for the whole batch are
// computed in one core.EncodeBatch call, then a stable two-pass counting
// sort scatters ops into per-node sub-batches.
type Partitioner struct {
	f  core.PF
	rm *RangeMap
}

// NewPartitioner builds a partitioner over mapping f and range map rm. The
// mapping must be the one every cluster member runs — the router encodes
// positions with it to find the owning range.
func NewPartitioner(f core.PF, rm *RangeMap) *Partitioner {
	return &Partitioner{f: f, rm: rm}
}

// A Plan is one partitioned batch: per-node sub-batches in a flat
// node-ordered layout (shard-planner idiom), plus the ops the router
// answers locally. A Plan borrows pooled scratch — call Release when the
// merge is done, and do not retain its slices past that.
type Plan struct {
	ops    []tabled.Op // the original batch (borrowed from the caller)
	nnodes int

	// localErr[i] non-nil means op i never leaves the router.
	localErr []error

	// subOps/subIdx hold every node assignment, grouped by node:
	// node n's sub-batch is subOps[starts[n]:starts[n+1]], and
	// subIdx[k] is the original batch index of subOps[k]. A broadcast op
	// appears once per node, so len(subOps) can exceed len(ops).
	subOps []tabled.Op
	subIdx []int32
	starts []int32

	// merged[i] records that out[i] has been written during the merge
	// (local errors count), so broadcast combining can tell "first reply"
	// from "combine with an earlier node's reply".
	merged []bool

	// scratch for the planning pass
	xs, ys, addrs []int64
	class         []int8
	node          []int32 // owning node for classAddressed
	count         []int32
}

var planPool = sync.Pool{New: func() any { return new(Plan) }}

// grow sizes the scratch for n ops over nnodes nodes, reusing capacity.
// assignments is the worst-case flat size (computed by the caller).
func (p *Plan) grow(n, nnodes, assignments int) {
	if cap(p.localErr) < n {
		p.localErr = make([]error, n)
		p.merged = make([]bool, n)
		p.xs = make([]int64, n)
		p.ys = make([]int64, n)
		p.addrs = make([]int64, n)
		p.class = make([]int8, n)
		p.node = make([]int32, n)
	}
	p.localErr = p.localErr[:n]
	p.merged = p.merged[:n]
	p.xs, p.ys, p.addrs = p.xs[:n], p.ys[:n], p.addrs[:n]
	p.class, p.node = p.class[:n], p.node[:n]
	clear(p.localErr)
	clear(p.merged)
	if cap(p.starts) < nnodes+1 {
		p.starts = make([]int32, nnodes+1)
		p.count = make([]int32, nnodes)
	}
	p.starts = p.starts[:nnodes+1]
	p.count = p.count[:nnodes]
	clear(p.starts)
	clear(p.count)
	if cap(p.subOps) < assignments {
		p.subOps = make([]tabled.Op, assignments)
		p.subIdx = make([]int32, assignments)
	}
	p.subOps = p.subOps[:assignments]
	p.subIdx = p.subIdx[:assignments]
}

// Release returns the plan's scratch to the pool.
func (p *Plan) Release() {
	p.ops = nil
	planPool.Put(p)
}

// NumAssignments returns the total ops across all sub-batches (broadcast
// ops counted once per node).
func (p *Plan) NumAssignments() int { return len(p.subOps) }

// Sub returns node n's sub-batch and the original batch index of each of
// its ops. The slices alias plan scratch.
func (p *Plan) Sub(n int) (ops []tabled.Op, idx []int32) {
	return p.subOps[p.starts[n]:p.starts[n+1]], p.subIdx[p.starts[n]:p.starts[n+1]]
}

// Partition lays ops out by owning node. anycast names the node that
// receives the anycast class (callers pass the preferred healthy member).
//
// Sub-batches preserve the relative order of the original batch, and a
// broadcast op appears in every node's sub-batch at its correct relative
// position — so each node executes exactly the projection of the batch it
// owns, in order, and the merged results are identical to single-node
// execution (the equivalence property the tests quick-check).
func (pt *Partitioner) Partition(ops []tabled.Op, anycast int) *Plan {
	nnodes := pt.rm.NumNodes()
	if anycast < 0 || anycast >= nnodes {
		anycast = 0
	}
	p := planPool.Get().(*Plan)
	p.ops = ops

	// Pass 0: positions for the batched address computation. Non-addressed
	// ops get (1,1) so the batch encoder never sees them as failures worth
	// reporting; their address is ignored.
	p.grow(len(ops), nnodes, 0) // flat layout sized below once assignments are known
	for i := range ops {
		switch ops[i].Op {
		case "set", "get":
			p.xs[i], p.ys[i] = ops[i].X, ops[i].Y
		default:
			p.xs[i], p.ys[i] = 1, 1
		}
	}
	core.EncodeBatch(pt.f, p.xs, p.ys, p.addrs, nil)

	// Pass 1: classify and count.
	for i := range ops {
		switch ops[i].Op {
		case "set", "get":
			if p.addrs[i] == 0 {
				// The mapping rejected the position (out of domain,
				// overflow): forward to the anycast node, which re-derives
				// and reports the error exactly as a single node would.
				p.class[i] = classAnycast
				p.count[anycast]++
				continue
			}
			n, err := pt.rm.NodeFor(p.addrs[i])
			if err != nil {
				p.class[i] = classLocal
				p.localErr[i] = err
				continue
			}
			p.class[i] = classAddressed
			p.node[i] = int32(n)
			p.count[n]++
		case "resize", "stats":
			p.class[i] = classBroadcast
			for n := range p.count {
				p.count[n]++
			}
		case "dims":
			p.class[i] = classAnycast
			p.count[anycast]++
		default:
			// Same text a tabled server answers, so cluster and single-node
			// execution stay bit-identical.
			p.class[i] = classLocal
			p.localErr[i] = fmt.Errorf("unknown op %q", ops[i].Op)
		}
	}

	// Prefix sums → starts; re-grow the flat layout now that the
	// assignment total is known (localErr/class/… keep their contents:
	// grow only reallocates when capacity is short, and the first grow
	// already sized the per-op scratch).
	total := 0
	for n := range p.count {
		total += int(p.count[n])
	}
	if cap(p.subOps) < total {
		p.subOps = make([]tabled.Op, total)
		p.subIdx = make([]int32, total)
	}
	p.subOps = p.subOps[:total]
	p.subIdx = p.subIdx[:total]
	p.starts[0] = 0
	for n := 0; n < nnodes; n++ {
		p.starts[n+1] = p.starts[n] + p.count[n]
	}

	// Pass 2: stable scatter against incrementing cursors (reusing count
	// as the cursor array).
	cur := p.count
	copy(cur, p.starts[:nnodes])
	put := func(n int32, i int) {
		p.subOps[cur[n]] = p.ops[i]
		p.subIdx[cur[n]] = int32(i)
		cur[n]++
	}
	for i := range ops {
		switch p.class[i] {
		case classAddressed:
			put(p.node[i], i)
		case classAnycast:
			put(int32(anycast), i)
		case classBroadcast:
			for n := int32(0); int(n) < nnodes; n++ {
				put(n, i)
			}
		}
	}
	return p
}

// MergeLocal writes the router-answered ops into out (len(out) must equal
// the batch length) and returns how many there were.
func (p *Plan) MergeLocal(out []tabled.OpResult) int {
	n := 0
	for i, err := range p.localErr {
		if err != nil {
			out[i] = tabled.OpResult{Err: err.Error()}
			p.merged[i] = true
			n++
		}
	}
	return n
}

// MergeInto merges node n's sub-batch results into out, in request order.
// Nodes MUST be merged in ascending index order (the caller loops 0..N
// after the fan-out completes) so broadcast combining is deterministic:
//
//   - addressed/anycast ops: the single owner's result is taken verbatim;
//   - broadcast resize: OK only if every node succeeded; otherwise the
//     first (lowest-node) error wins — matching single-node execution,
//     where the one server's error would be the answer;
//   - broadcast stats: per-member stats aggregate exactly to the
//     single-node values — Moves sums (a shrink deletes each discarded
//     cell on exactly the node owning its address), Footprint and
//     Reshapes take the max (every member applies every resize, so the
//     counters are replicas; footprint's max-over-members IS the global
//     max address).
//
// sub must have one entry per op of node n's sub-batch.
func (p *Plan) MergeInto(out []tabled.OpResult, n int, sub []tabled.OpResult) {
	_, idx := p.Sub(n)
	for k, r := range sub {
		i := idx[k]
		if !p.merged[i] {
			p.merged[i] = true
			if r.Stats != nil {
				// Own the aggregation target: later nodes add into it.
				st := *r.Stats
				r.Stats = &st
			}
			out[i] = r
			continue
		}
		if p.class[i] != classBroadcast {
			out[i] = r // single owner; overwrite is defensive
			continue
		}
		switch {
		case out[i].Err != "":
			// An earlier node already failed this broadcast op.
		case r.Err != "":
			out[i] = r
		case out[i].Stats != nil && r.Stats != nil:
			AggregateStats(out[i].Stats, *r.Stats)
		}
	}
}

// FillUnmerged writes err into every op no merge reached — the safety net
// for a node whose reply never arrived; with every sub-batch merged (even
// failed ones merge synthesized errors) it writes nothing.
func (p *Plan) FillUnmerged(out []tabled.OpResult, err error) {
	for i := range p.merged {
		if !p.merged[i] {
			out[i] = tabled.OpResult{Err: err.Error()}
			p.merged[i] = true
		}
	}
}

// AggregateStats is the broadcast-stats combine rule, shared by MergeInto
// and the router's /v1/stats endpoint: Moves sum, Footprint max, Reshapes
// max.
func AggregateStats(agg *extarray.Stats, st extarray.Stats) {
	agg.Moves += st.Moves
	if st.Footprint > agg.Footprint {
		agg.Footprint = st.Footprint
	}
	if st.Reshapes > agg.Reshapes {
		agg.Reshapes = st.Reshapes
	}
}
