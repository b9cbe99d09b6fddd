// Command bench is the end-to-end benchmark of the pairfn table service.
// It builds cmd/tabledserver and cmd/tabledrouter from the checkout it is
// run in, spawns them with their own data dirs, drives them from this one
// process over the binary wire with 2 client goroutines on 2 keep-alive
// connections, and checks every answer.
//
// Usage, from the root of the checkout:
//
//	bash bench/run.sh --workload node-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the run also writes a Chrome trace and a
// per-layer summary. A table of every metric, informational ones
// included, goes to standard error. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// A metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured, written with -report.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	DataFS     string            `json:"data_fs"`
	Checks     map[string]int64  `json:"failed_checks,omitempty"`
	Result     result            `json:"result"`
	Info       map[string]metric `json:"info"`
}

// runSlack bounds everything a run does after the build besides its
// measured seconds, so the process exits well within three minutes at
// the run length BENCHMARK.json sets.
const runSlack = 140 * time.Second

// loadGOGC is the GOGC of the benchmark process while it generates load.
const loadGOGC = 400

// workDir holds the binaries, the daemons' data dirs and the traces,
// relative to the root of the checkout the benchmark runs in.
const workDir = ".bench_build"

func main() {
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "workload: node-read | repl-write | router-mixed | node-skinny")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "seconds of measured load")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	reportPath := flag.String("report", "", "also write the full report as JSON to this file")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(filepath.Join("cmd", "tabledserver")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the root of a pairfn checkout:", err)
		return 2
	}

	// The load generator's live heap is a few MB, so at the default GOGC
	// it collects dozens of times a second. On a 2-core box shared with
	// the daemons that costs a quarter of its CPU per cell.
	debug.SetGCPercent(loadGOGC)

	bins := filepath.Join(workDir, "bin")
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", bins+string(filepath.Separator), "./cmd/tabledserver", "./cmd/tabledrouter")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: building the daemons:", err)
		return 1
	}
	buildS := time.Since(t0).Seconds()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	measure := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(ctx, measure+runSlack)
	defer cancel()

	runDir := filepath.Join(workDir, "run", fmt.Sprintf("%s-seed%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer func() {
		if code == 0 { // a failed run keeps its daemons' logs
			os.RemoveAll(runDir)
		}
	}()

	b := &bench{
		w:       w,
		g:       newGen(w, *seed),
		seed:    *seed,
		measure: measure,
		bins:    bins,
		dir:     runDir,
		info:    map[string]metric{"build_s": {buildS, "s"}},
	}
	var out *outcome
	if *traceFlag == 1 {
		out, err = b.traced(ctx, filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d", w.name, *seed)))
	} else {
		out, err = b.untraced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	rep := report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataFS: fsType(runDir), Checks: out.checks, Info: b.info,
		Result: result{
			Correct:   len(out.checks) == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   out.metrics,
		},
	}
	printTable(rep)
	if *reportPath != "" {
		data, err := json.Marshal(rep)
		if err == nil {
			err = os.WriteFile(*reportPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing the report:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	for c, n := range out.checks {
		fmt.Fprintf(os.Stderr, "bench: check %s failed %d times\n", c, n)
		code = 1
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "bench:", e)
		code = 1
	}
	return code
}

// A bench is one run's shared state.
type bench struct {
	w       *workload
	g       *gen
	seed    int64
	measure time.Duration
	bins    string
	dir     string
	info    map[string]metric
}

// outcome is what a run hands back for printing.
type outcome struct {
	metrics           map[string]metric
	attempted, failed int64
	checks            map[string]int64
	errs              []error // failures of the harness's own checks
}

func (o *outcome) addChecks(st *phaseStats) {
	for k, v := range st.checks {
		if o.checks == nil {
			o.checks = map[string]int64{}
		}
		o.checks[k] += v
	}
}

// printTable writes every metric, the informational ones included, to
// standard error.
func printTable(rep report) {
	fmt.Fprintf(os.Stderr, "\n%s seed=%d seconds=%d trace=%v  %s nproc=%d GOMAXPROCS=%d fs=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.DataFS)
	row := func(kind string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-6s %-40s %16s %s\n", kind, n, strconv.FormatFloat(m[n].Value, 'g', 6, 64), m[n].Unit)
		}
	}
	row("metric", rep.Result.Metrics)
	row("info", rep.Info)
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n\n", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
}
