package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"pairfn/internal/tabled"
)

// batchCells is the size of every batch the benchmark sends; a batch holds
// one op kind only.
const batchCells = 128

// valueLen is the length of every stored value. A value spells its own
// position, a nonce and a checksum, so any found get can be validated
// without a shadow copy of the table.
const valueLen = 32

// sentinelCells is how many unique cells the durability phase writes
// before the SIGKILL and reads back after the restart.
const sentinelCells = 4096

// A topology is the set of daemons a workload runs against.
type topology int

const (
	topoNode   topology = iota // one tabledserver
	topoPair                   // semi-sync primary plus one follower
	topoRouter                 // tabledrouter over three tabledservers
)

// A workload is one traffic mix against one topology. Rates are open-loop
// batch rates, set once at about 20% and 60% of the capacity measured on
// the calibration box (see README.md) and frozen here so every commit is
// offered the same load.
type workload struct {
	name       string
	topo       topology
	rows, cols int64
	setFrac    float64 // share of batches that are sets
	zipf       bool    // Zipf(s=1.1) over a seeded permutation, else uniform
	light      float64 // batches/s
	heavy      float64 // batches/s
}

// cells is the size of the position space.
func (w *workload) cells() int64 { return w.rows * w.cols }

// The four workloads share one cell count, 2^16, so node-read and
// node-skinny differ only in shape: square-shell packs the square table
// into 2^16 addresses (64 pages), but spreads the 8×8192 one over 2^26
// (about 1024 addresses per cell, ~8k touched pages, more than the L3).
// Every table is preloaded, so setup and recovery do the same work on
// every workload and every get must find its cell.
var workloads = []workload{
	// The read path on one node: core encode, shard get, codec, server and
	// net. WAL and replication do no timed work, so a write-path change
	// should leave it flat.
	{
		name: "node-read", topo: topoNode, rows: 256, cols: 256,
		setFrac: 0, zipf: true, light: 1000, heavy: 3100,
	},
	// The write-side twin: WAL append and fsync, the follower's pull and
	// apply, and the semi-sync ack wait.
	{
		name: "repl-write", topo: topoPair, rows: 256, cols: 256,
		setFrac: 0.9, light: 240, heavy: 700,
	},
	// The second hop: partition, fan-out and merge. The only workload that
	// runs the cluster package.
	{
		name: "router-mixed", topo: topoRouter, rows: 256, cols: 256,
		setFrac: 0.5, light: 200, heavy: 590,
	},
	// The paper's spread case: memory and page handling, not encode.
	{
		name: "node-skinny", topo: topoNode, rows: 8, cols: 8192,
		setFrac: 0.5, light: 520, heavy: 1600,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// A phase names one stream of batches. Batch k of a phase is a pure
// function of (seed, workload, phase, k), so every run and every commit is
// offered the same work whichever client sends it.
type phase uint64

const (
	phasePreload phase = iota + 1
	phaseWarmup
	phaseCapacity
	phaseLight
	phaseHeavy
	phaseSentinel
)

// gen generates the batches of one (seed, workload) pair.
type gen struct {
	w    *workload
	key  uint64
	perm []int32 // seeded permutation of cell indexes
}

func newGen(w *workload, seed int64) *gen {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	key := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	r := rand.New(rand.NewPCG(key, 0))
	perm := make([]int32, w.cells())
	for i := range perm {
		perm[i] = int32(i)
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &gen{w: w, key: key, perm: perm}
}

// batchBuf is one goroutine's generator scratch.
type batchBuf struct {
	pcg  *rand.PCG
	r    *rand.Rand
	zipf *rand.Zipf
	ops  []tabled.Op
}

func (g *gen) newBuf() *batchBuf {
	pcg := rand.NewPCG(0, 0)
	r := rand.New(pcg)
	return &batchBuf{
		pcg:  pcg,
		r:    r,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(g.w.cells()-1)),
		ops:  make([]tabled.Op, 0, batchCells),
	}
}

// pos maps a cell index to its 1-based position.
func (g *gen) pos(idx int64) (x, y int64) {
	return idx/g.w.cols + 1, idx%g.w.cols + 1
}

// preloadBatches is the number of batches that write every cell once.
func (g *gen) preloadBatches() int64 {
	return (g.w.cells() + batchCells - 1) / batchCells
}

// batch fills b.ops with batch k of phase p and returns it.
func (g *gen) batch(b *batchBuf, p phase, k int64) []tabled.Op {
	b.pcg.Seed(g.key, uint64(p)<<48|uint64(k))
	ops := b.ops[:0]
	n := g.w.cells()
	switch p {
	case phasePreload:
		for i := k * batchCells; i < (k+1)*batchCells && i < n; i++ {
			x, y := g.pos(i)
			ops = append(ops, tabled.Op{Op: "set", X: x, Y: y, V: value(x, y, b.r.Uint32())})
		}
	case phaseSentinel:
		// Sentinels walk the permutation from its far end: unique cells.
		for i := k * batchCells; i < (k+1)*batchCells; i++ {
			x, y := g.pos(int64(g.perm[n-1-i%n]))
			ops = append(ops, tabled.Op{Op: "set", X: x, Y: y, V: value(x, y, b.r.Uint32())})
		}
	default:
		set := b.r.Float64() < g.w.setFrac
		for range batchCells {
			var idx int64
			if g.w.zipf {
				idx = int64(g.perm[b.zipf.Uint64()])
			} else {
				idx = b.r.Int64N(n)
			}
			x, y := g.pos(idx)
			if set {
				ops = append(ops, tabled.Op{Op: "set", X: x, Y: y, V: value(x, y, b.r.Uint32())})
			} else {
				ops = append(ops, tabled.Op{Op: "get", X: x, Y: y})
			}
		}
	}
	b.ops = ops
	return ops
}

const hexDigits = "0123456789abcdef"

// unhex maps a lower-case hex digit to its value and anything else to
// 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < 16; i++ {
		t[hexDigits[i]] = byte(i)
	}
	return t
}()

func putHex(dst []byte, v uint32) {
	for i := 7; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

func parseHex(s string) (uint32, bool) {
	var v uint32
	var bad byte
	for i := 0; i < len(s); i++ {
		d := unhex[s[i]]
		bad |= d
		v = v<<4 | uint32(d&0xf)
	}
	return v, bad&0xf0 == 0
}

// valueSum keys a value's checksum to its position and nonce. The load
// generator checks every value it reads, so this is a multiply and
// shift, not a CRC.
func valueSum(x, y int64, nonce uint32) uint32 {
	h := (uint64(x)<<32 | uint64(uint32(y))) * 0x9e3779b97f4a7c15
	h ^= uint64(nonce) * 0xc2b2ae3d27d4eb4f
	return uint32(h >> 32)
}

// value is the self-checking payload stored at (x, y): the hex of x, y,
// nonce and their checksum.
func value(x, y int64, nonce uint32) string {
	var b [valueLen]byte
	putHex(b[0:8], uint32(x))
	putHex(b[8:16], uint32(y))
	putHex(b[16:24], nonce)
	putHex(b[24:32], valueSum(x, y, nonce))
	return string(b[:])
}

// checkValue reports whether v is a well-formed value written at (x, y).
func checkValue(v string, x, y int64) bool {
	if len(v) != valueLen {
		return false
	}
	var pos [16]byte
	putHex(pos[0:8], uint32(x))
	putHex(pos[8:16], uint32(y))
	nonce, ok1 := parseHex(v[16:24])
	sum, ok2 := parseHex(v[24:32])
	return ok1 && ok2 && string(pos[:]) == v[:16] && sum == valueSum(x, y, nonce)
}
