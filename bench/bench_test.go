package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/tabled"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile([]int64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("percentile([1 2 3 4], 0.5) = %d, want 2 (nearest rank, no interpolation)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// stallServer answers binary batches with every op OK. The stall-th
// request holds a lock that every request takes, so the whole server
// stalls for d.
func stallServer(t *testing.T, stall int, d time.Duration) *httptest.Server {
	var (
		mu sync.Mutex
		n  int
	)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		ops, err := tabled.DecodeBatchRequest(body, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		n++
		if n == stall {
			time.Sleep(d)
		}
		mu.Unlock()
		res := make([]tabled.OpResult, len(ops))
		for i := range res {
			res[i].OK = true
		}
		out, err := tabled.AppendBatchResponse(nil, res)
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", tabled.ContentTypeBinary)
		w.Write(out)
	}))
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	srv := stallServer(t, 10, stall)
	defer srv.Close()
	w := &workload{name: "test", rows: 16, cols: 16, setFrac: 1}
	lg := newLoadgen(newGen(w, 1), srv.URL, false)
	defer lg.tr.CloseIdleConnections()

	// 1000 batches/s: both senders sit in the stalled server, so the
	// batches due meanwhile are sent late. Timed from the due time, the
	// stall shows in them too, not only in the batch that hit it.
	st, next := lg.run(context.Background(), schedule{p: phaseLight, count: 100, rate: 1000})
	if st.failed != 0 || len(st.checks) != 0 {
		t.Fatalf("failed=%d checks=%v first error %q", st.failed, st.checks, st.firstErr)
	}
	if len(st.lat) != 100 || next != 100 {
		t.Fatalf("sent %d batches, next index %d; want 100 and 100", len(st.lat), next)
	}
	var slow, lateSent int
	for i := range st.lat {
		if st.lat[i] < st.late[i] {
			t.Fatalf("batch latency %v is below its lateness %v: latency must run from the due time", time.Duration(st.lat[i]), time.Duration(st.late[i]))
		}
		if time.Duration(st.lat[i]) > stall/2 {
			slow++
		}
		if time.Duration(st.late[i]) > stall/2 {
			lateSent++
		}
	}
	// One request stalled, but every batch due in the first half of the
	// stall waited that long for a sender.
	if slow < 10 || lateSent < 10 {
		t.Errorf("%d batches took over %v from their due time and %d were sent that late; want at least 10 each", slow, stall/2, lateSent)
	}
}

func TestClosedLoopSendsContiguousBatches(t *testing.T) {
	srv := stallServer(t, 0, 0)
	defer srv.Close()
	w := &workload{name: "test", rows: 16, cols: 16, setFrac: 1}
	lg := newLoadgen(newGen(w, 1), srv.URL, false)
	defer lg.tr.CloseIdleConnections()
	st, next := lg.run(context.Background(), schedule{p: phaseCapacity, k0: 5, d: 50 * time.Millisecond})
	if int64(len(st.lat)) != next-5 {
		t.Errorf("sent %d batches but the next index is %d: a timed closed loop skipped indexes", len(st.lat), next)
	}
}

func TestRefLoopSpeed(t *testing.T) {
	ref, err := startRefLoop()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if err := ref.mark(); err != nil {
		t.Fatal(err)
	}
	before := ref.last
	f, err := ref.span()
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 || ref.last <= 0 || f != (before+ref.last)/2 {
		t.Errorf("speeds %v then %v, span %v: want positive speeds and their mean", before, ref.last, f)
	}
}

func TestAppendScaled(t *testing.T) {
	got := appendScaled([]int64{7}, []int64{1000, failedLatency, 30}, 0.5)
	if want := []int64{7, 500, failedLatency, 15}; !reflect.DeepEqual(got, want) {
		t.Errorf("appendScaled = %v, want %v (a failed request keeps failedLatency)", got, want)
	}
}

func TestPromParseAndDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("tabled_ops_total", obs.L("op", "get"))
	h := reg.Histogram("http_request_duration_seconds", obs.DefDurationBuckets, obs.L("path", "/v1/batch"))
	g := reg.Gauge("tabled_repl_lag_records")
	scrape := func() promSet {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := parseProm(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	c.Add(3)
	h.Observe(0.5)
	g.Set(9)
	before := scrape()
	c.Add(4)
	h.Observe(0.25)
	h.Observe(0.125)
	g.Set(2)
	after := scrape()

	d := delta(before, after)
	for _, want := range []struct {
		key string
		v   float64
	}{
		{seriesKey("tabled_ops_total", "op", "get"), 4},
		{seriesKey("http_request_duration_seconds_sum", "path", "/v1/batch"), 0.375},
		{seriesKey("http_request_duration_seconds_count", "path", "/v1/batch"), 2},
		{seriesKey("http_request_duration_seconds_bucket", "le", "+Inf", "path", "/v1/batch"), 2},
		{seriesKey("tabled_repl_lag_records"), -7},
	} {
		if got := d[want.key]; got != want.v {
			t.Errorf("delta %s = %v, want %v", want.key, got, want.v)
		}
	}
	if got := after[seriesKey("tabled_repl_lag_records")]; got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
	if got := sumOver([]promSet{d, d}, "http_request_duration_seconds_count", "path", "/v1/batch"); got != 4 {
		t.Errorf("sumOver two scrapes = %v, want 4", got)
	}
	if got := sumFamily([]promSet{after}, "tabled_ops_total"); got != 7 {
		t.Errorf("sumFamily = %v, want 7", got)
	}
}

func TestPromLabelOrderAndEscapes(t *testing.T) {
	s, err := parseProm([]byte("# HELP x help\n# TYPE x counter\n" +
		`x{b="2",a="say \"hi\"\\n"} 5` + "\n" +
		"y 1.5e3 1700000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s[seriesKey("x", "a", `say "hi"\n`, "b", "2")]; got != 5 {
		t.Errorf("labelled sample = %v, want 5 (keys: %v)", got, s)
	}
	if got := s["y"]; got != 1500 {
		t.Errorf("sample with timestamp = %v, want 1500", got)
	}
	for _, bad := range []string{"x{a=1} 2\n", `x{a="1} 2` + "\n", "x\n", "x{a=\"1\"} notanumber\n"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", bad)
		}
	}
}

func TestBatchesArePureFunctions(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g1, g2 := newGen(w, 7), newGen(w, 7)
		b1, b2 := g1.newBuf(), g2.newBuf()
		for _, p := range []phase{phasePreload, phaseWarmup, phaseCapacity, phaseLight, phaseHeavy, phaseSentinel} {
			// Generate out of order on one side: a batch must not depend on
			// what was generated before it.
			want := append([]tabled.Op(nil), g1.batch(b1, p, 3)...)
			g2.batch(b2, p, 9)
			g2.batch(b2, phaseWarmup, 1)
			if got := g2.batch(b2, p, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("%s phase %d batch 3 differs between generators", w.name, p)
			}
			if len(want) != batchCells {
				t.Errorf("%s phase %d batch has %d ops, want %d", w.name, p, len(want), batchCells)
			}
			for _, op := range want {
				if op.Op != want[0].Op {
					t.Fatalf("%s phase %d batch mixes %s and %s", w.name, p, want[0].Op, op.Op)
				}
				if op.X < 1 || op.X > w.rows || op.Y < 1 || op.Y > w.cols {
					t.Fatalf("%s phase %d: (%d, %d) outside %dx%d", w.name, p, op.X, op.Y, w.rows, w.cols)
				}
			}
			other := newGen(w, 8)
			if reflect.DeepEqual(other.batch(other.newBuf(), p, 3), want) {
				t.Errorf("%s phase %d batch 3 is the same under seeds 7 and 8", w.name, p)
			}
		}
	}
}

func TestPreloadAndSentinelsCoverDistinctCells(t *testing.T) {
	w := &workloads[0]
	g := newGen(w, 3)
	b := g.newBuf()
	seen := map[[2]int64]bool{}
	for k := range g.preloadBatches() {
		for _, op := range g.batch(b, phasePreload, k) {
			seen[[2]int64{op.X, op.Y}] = true
		}
	}
	if int64(len(seen)) != w.cells() {
		t.Errorf("preload wrote %d distinct cells, want %d", len(seen), w.cells())
	}
	clear(seen)
	for k := range int64(sentinelCells / batchCells) {
		for _, op := range g.batch(b, phaseSentinel, k) {
			seen[[2]int64{op.X, op.Y}] = true
		}
	}
	if len(seen) != sentinelCells {
		t.Errorf("sentinels hit %d distinct cells, want %d", len(seen), sentinelCells)
	}
}

func TestValueSelfCheck(t *testing.T) {
	v := value(12, 34, 0xdeadbeef)
	if len(v) != valueLen {
		t.Fatalf("len(value) = %d, want %d", len(v), valueLen)
	}
	if !checkValue(v, 12, 34) {
		t.Fatalf("checkValue rejects its own value %q", v)
	}
	if checkValue(v, 12, 35) || checkValue(v, 13, 34) {
		t.Error("checkValue accepts a value at the wrong position")
	}
	for i := range v {
		for _, c := range []byte{'0', 'f', 'A', 'g'} {
			if v[i] == c {
				continue
			}
			bad := v[:i] + string(c) + v[i+1:]
			if checkValue(bad, 12, 34) {
				t.Errorf("checkValue accepts %q (byte %d changed)", bad, i)
			}
		}
	}
	if checkValue(v[:valueLen-1], 12, 34) || checkValue(v+"0", 12, 34) {
		t.Error("checkValue accepts a value of the wrong length")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "client", parent: -1, start: 0, end: 100},
		{name: "net", parent: 0, start: 10, end: 30},
		{name: "net", parent: 0, start: 20, end: 50},  // overlaps the first child
		{name: "net", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "leaf", parent: 1, start: 12, end: 14},
	}
	want := []int64{100 - 40 - 10, 20 - 2, 30, 30, 2}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	st := summarize([]*recorder{{spans: spans}})
	if c := st["client"]; c.count != 1 || c.total != 100 || c.self != 50 {
		t.Errorf("client summary = %+v, want count 1, total 100, self 50", *c)
	}
	if n := st["net"]; n.count != 3 || n.total != 80 || n.self != 78 {
		t.Errorf("net summary = %+v, want count 3, total 80, self 78", *n)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(time.Now(), 0)
	outer := r.begin("outer", 4)
	inner := r.begin("inner", 4)
	r.end(inner)
	r.end(inner) // a second end keeps the first
	r.end(outer)
	if r.open != -1 {
		t.Errorf("open span = %d after closing all, want -1", r.open)
	}
	if r.spans[inner].parent != outer || r.spans[outer].parent != -1 {
		t.Errorf("parents = %d, %d; want %d, -1", r.spans[inner].parent, r.spans[outer].parent, outer)
	}
	if s := r.spans[inner]; s.end < s.start || s.start < r.spans[outer].start || s.end > r.spans[outer].end {
		t.Errorf("inner span %+v not inside outer %+v", s, r.spans[outer])
	}
}

// TestBenchmarkJSONMatchesMetrics holds the metric tables the runs report
// to the names and units BENCHMARK.json declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark reports %d", len(declared), kind, len(units))
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, benchmark unit %q (reported: %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
