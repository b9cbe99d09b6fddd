package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pairfn/internal/tabled"
)

// clients is the number of load goroutines, one keep-alive connection
// each: the calibration box has 2 cores, shared with the daemons.
const clients = 2

// requestTimeout bounds one batch; a daemon that stalls longer fails it.
const requestTimeout = 10 * time.Second

// failedLatency stands for the latency of a failed request, so a failure
// counts as missing every latency limit.
const failedLatency = math.MaxInt64

// A loadgen drives one deployment from this process through the
// binary-wire tabled.Client.
type loadgen struct {
	g    *gen
	cl   *tabled.Client
	tr   *http.Transport
	bufs [clients]*batchBuf
	// recs, when set, trace every even batch: one recorder per goroutine.
	recs [clients]*recorder
}

// newLoadgen returns a load generator for the daemon at base. With traced
// set, requests pass through tracingTransport, which records a net span
// whenever the request context carries a recorder.
func newLoadgen(g *gen, base string, traced bool) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = tr
	if traced {
		rt = tracingTransport{next: tr}
	}
	l := &loadgen{
		g:  g,
		tr: tr,
		cl: &tabled.Client{
			Base:    base,
			HTTP:    &http.Client{Transport: rt},
			Wire:    tabled.WireBinary,
			Timeout: requestTimeout,
		},
	}
	for i := range l.bufs {
		l.bufs[i] = g.newBuf()
	}
	return l
}

// phaseStats is what one phase measured. Counts are in cells.
type phaseStats struct {
	attempted, failed int64
	setAcked          int64 // set cells acknowledged
	getCells          int64 // get cells answered
	setBatches        int64
	firstErr          string
	checks            map[string]int64 // correctness failures by check
	lat, late         []int64          // per batch, ns from the due time
	elapsed           time.Duration
	// With recorders set, even batches are traced and odd ones not: the
	// summed latency and count of each.
	tracedNs, plainNs float64
	tracedN, plainN   int64
}

func (s *phaseStats) check(name string) {
	if s.checks == nil {
		s.checks = map[string]int64{}
	}
	s.checks[name]++
}

func (s *phaseStats) merge(o *phaseStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.setAcked += o.setAcked
	s.getCells += o.getCells
	s.setBatches += o.setBatches
	s.tracedNs += o.tracedNs
	s.plainNs += o.plainNs
	s.tracedN += o.tracedN
	s.plainN += o.plainN
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
	for k, v := range o.checks {
		if s.checks == nil {
			s.checks = map[string]int64{}
		}
		s.checks[k] += v
	}
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
}

// A schedule says which batches a phase sends and when. An open loop
// sends count batches, batch k due k/rate seconds after the start; a
// closed loop sends count batches, or with count 0 as many as fit in d.
type schedule struct {
	p     phase
	k0    int64 // first batch index
	count int64
	d     time.Duration
	rate  float64 // batches/s; 0 = closed loop
}

// run executes one phase with every client goroutine and returns the
// merged stats and the index after the last batch sent.
func (l *loadgen) run(ctx context.Context, sc schedule) (*phaseStats, int64) {
	var next atomic.Int64
	next.Store(sc.k0)
	start := time.Now()
	var end time.Time
	if sc.count == 0 {
		end = start.Add(sc.d)
	}
	var interval float64
	if sc.rate > 0 {
		interval = float64(time.Second) / sc.rate
	}
	per := make([]*phaseStats, clients)
	var wg sync.WaitGroup
	for c := range clients {
		per[c] = &phaseStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.worker(ctx, c, sc, &next, start, end, interval, per[c])
		}()
	}
	wg.Wait()
	st := per[0]
	for _, o := range per[1:] {
		st.merge(o)
	}
	st.elapsed = time.Since(start)
	k := next.Load()
	if sc.count > 0 {
		k = min(k, sc.k0+sc.count)
	}
	return st, k
}

func (l *loadgen) worker(ctx context.Context, c int, sc schedule, next *atomic.Int64,
	start, end time.Time, interval float64, st *phaseStats) {
	b := l.bufs[c]
	rec := l.recs[c]
	tctx := ctx
	if rec != nil {
		tctx = withRecorder(ctx, rec)
	}
	for ctx.Err() == nil {
		// A timed loop checks the clock before taking a batch index, so
		// the indexes a phase sends stay contiguous.
		if !end.IsZero() && !time.Now().Before(end) {
			return
		}
		k := next.Add(1) - 1
		if sc.count > 0 && k >= sc.k0+sc.count {
			return
		}
		due := time.Now()
		if interval > 0 {
			// Open loop: batch k is due at its slot whether or not the
			// system kept up; a sender takes the next due slot.
			due = start.Add(time.Duration(float64(k-sc.k0) * interval))
			if wait := time.Until(due); wait > 0 {
				sleep(wait)
			}
		}
		ops := l.g.batch(b, sc.p, k)
		traced := rec != nil && k%2 == 0
		sent := time.Now()
		var (
			res []tabled.OpResult
			err error
		)
		if traced {
			span := rec.begin(spanClient, k)
			res, err = l.cl.BatchWithKey(tctx, ops, "")
			rec.end(span)
		} else {
			res, err = l.cl.BatchWithKey(ctx, ops, "")
		}
		doneAt := time.Now()
		lat := int64(doneAt.Sub(due))
		if rec != nil {
			if traced {
				st.tracedNs += float64(doneAt.Sub(sent))
				st.tracedN++
			} else {
				st.plainNs += float64(doneAt.Sub(sent))
				st.plainN++
			}
		}
		if !l.account(st, ops, res, err) {
			lat = failedLatency
		}
		st.lat = append(st.lat, lat)
		st.late = append(st.late, int64(sent.Sub(due)))
		if rec != nil && k%noopEvery == 1 {
			l.noop(ctx, rec, k, st)
		}
	}
}

// noopEvery is how often, in batch indexes, a traced worker follows an
// untraced batch with a no-op round trip on its connection.
const noopEvery = 8

// noop times one GET /healthz on the front daemon as a net.noop span. It
// crosses the same loopback, HTTP stacks and request middleware as a
// batch but does no batch work, so its mean is net.self_us measured apart
// from the batches, not left over from them. ctx carries no recorder, so
// tracingTransport adds no net span under it.
func (l *loadgen) noop(ctx context.Context, rec *recorder, k int64, st *phaseStats) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.cl.Base+"/healthz", nil)
	if err != nil {
		st.check("noop-healthz")
		return
	}
	i := rec.begin(spanNoop, k)
	resp, err := l.cl.HTTP.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	rec.end(i)
	if err != nil {
		st.check("noop-healthz")
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
	}
}

// sleep blocks the calling thread for d with nanosleep(2). A Go timer
// would do, but the runtime waits for timers in epoll_wait, whose
// millisecond resolution makes every sub-millisecond wait last about a
// millisecond; the open loop's slots are a fraction of that apart.
// nanosleep overshoots by the 50 µs timer slack. An open-loop wait is at
// most a few slots, so the thread need not watch for cancellation.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// account checks one response and counts it, reporting whether the
// request succeeded. A request error fails all its ops.
func (l *loadgen) account(st *phaseStats, ops []tabled.Op, res []tabled.OpResult, err error) bool {
	n := int64(len(ops))
	st.attempted += n
	if ops[0].Op == "set" {
		st.setBatches++
	}
	if err != nil {
		st.failed += n
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
		return false
	}
	if len(res) != len(ops) {
		st.check("result-count")
		st.failed += n
		return false
	}
	for i := range ops {
		op, r := &ops[i], &res[i]
		if r.Err != "" {
			st.failed++
			if st.firstErr == "" {
				st.firstErr = r.Err
			}
			continue
		}
		switch op.Op {
		case "set":
			if !r.OK {
				st.check("set-acked")
				continue
			}
			st.setAcked++
		case "get":
			st.getCells++
			switch {
			case r.Found && !checkValue(r.V, op.X, op.Y):
				st.check("value-selfcheck")
			case !r.Found: // every cell was preloaded
				st.check("preloaded-get-found")
			}
		}
	}
	return true
}

// sentinelAttempts bounds the reads of one sentinel batch that fail with
// an error: a router serves a member's range again only after a health
// sweep (every 0.25-0.75 s) has seen the restarted member.
const sentinelAttempts = 50

// readSentinels reads back every sentinel and counts the ones that do not
// hold exactly the value written.
func (l *loadgen) readSentinels(ctx context.Context, st *phaseStats) error {
	b := l.bufs[0]
	for k := int64(0); k < sentinelCells/batchCells; k++ {
		want := l.g.batch(b, phaseSentinel, k)
		ops := make([]tabled.Op, len(want))
		for i, w := range want {
			ops[i] = tabled.Op{Op: "get", X: w.X, Y: w.Y}
		}
		var res []tabled.OpResult
		for attempt := 1; ; attempt++ {
			var err error
			res, err = l.cl.BatchWithKey(ctx, ops, "")
			if err == nil && !anyErr(res) {
				break
			}
			if attempt == sentinelAttempts {
				if err == nil {
					err = fmt.Errorf("%s", firstErr(res))
				}
				return fmt.Errorf("sentinel read: %w", err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
		for i := range ops {
			if i >= len(res) || !res[i].Found || res[i].V != want[i].V {
				st.check("sentinel-readback")
			}
		}
	}
	return nil
}

func anyErr(res []tabled.OpResult) bool { return firstErr(res) != "" }

func firstErr(res []tabled.OpResult) string {
	for _, r := range res {
		if r.Err != "" {
			return r.Err
		}
	}
	return ""
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
