package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"time"
)

// Span names, one per layer the benchmark can see from outside the
// daemons. In-daemon time comes from the daemons' own counters.
const (
	spanClient     = "tabled.client"      // Client.BatchWithKey
	spanNet        = "net"                // RoundTrip until the response body's EOF
	spanNoop       = "net.noop"           // a GET /healthz round trip between batches
	spanShardedGet = "tabled.sharded.get" // replayed GetBatchInto
	spanShardedSet = "tabled.sharded.set" // replayed SetBatchInto
	spanCore       = "core"               // replayed core.EncodeBatch, inside tabled.sharded
	spanCodecReq   = "tabled.codec.request"
	spanCodecResp  = "tabled.codec.response"
	spanPartition  = "cluster.partition"
)

// A span is one timed interval of one layer. Times are nanoseconds since
// the recorder's epoch; parent indexes the same recorder (-1 for a root).
type span struct {
	name       string
	batch      int64 // the trace ID: the batch's index in its phase
	parent     int32
	start, end int64
}

// A recorder keeps the spans of one goroutine in memory; nothing is
// shared, so recording takes no lock.
type recorder struct {
	epoch time.Time
	tid   int
	spans []span
	open  int32 // innermost span not yet ended, -1 if none
}

func newRecorder(epoch time.Time, tid int) *recorder {
	return &recorder{epoch: epoch, tid: tid, open: -1}
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string, batch int64) int32 {
	r.spans = append(r.spans, span{name: name, batch: batch, parent: r.open, start: int64(time.Since(r.epoch))})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

// end closes span i; ending one twice keeps the first end.
func (r *recorder) end(i int32) {
	s := &r.spans[i]
	if s.end != 0 {
		return
	}
	s.end = int64(time.Since(r.epoch))
	if r.open == i {
		r.open = s.parent
	}
}

// selfTimes returns, for each span, its duration minus the part of it
// that its children cover (overlapping children count once, and the part
// of a child outside its parent not at all).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := s.start // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.end)
			if hi > lo {
				self[i] -= hi - lo
				cur = hi
			}
		}
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count       int64
	total, self int64 // ns
}

// summarize aggregates total and self time by span name.
func summarize(recs []*recorder) map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			st := out[s.name]
			if st == nil {
				st = &layerStat{}
				out[s.name] = st
			}
			st.count++
			st.total += s.end - s.start
			st.self += self[i]
		}
	}
	return out
}

// maxTraceEvents caps the events written per recorder so a long run still
// opens quickly in a trace viewer; summaries use every span.
const maxTraceEvents = 20000

// writeChromeTrace writes the spans as Chrome trace-event JSON, the
// format chrome://tracing and ui.perfetto.dev open.
func writeChromeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for i, s := range r.spans {
			if i == maxTraceEvents {
				break
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			if err := enc.Encode(event{
				Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: r.tid, Args: map[string]int64{"batch": s.batch},
			}); err != nil {
				return err
			}
		}
	}
	io.WriteString(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// traceKey carries a worker's recorder in the request context.
type traceKey struct{}

// tracingTransport records a net span from the start of RoundTrip until
// the response body reaches EOF or is closed, under the caller's open
// tabled.client span.
type tracingTransport struct{ next http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec, _ := req.Context().Value(traceKey{}).(*recorder)
	if rec == nil || rec.open < 0 {
		return t.next.RoundTrip(req)
	}
	i := rec.begin(spanNet, rec.spans[rec.open].batch)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		rec.end(i)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: rec, i: i}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec *recorder
	i   int32
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.rec.end(b.i)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.rec.end(b.i)
	return b.ReadCloser.Close()
}

// withRecorder returns ctx carrying rec for tracingTransport.
func withRecorder(ctx context.Context, rec *recorder) context.Context {
	return context.WithValue(ctx, traceKey{}, rec)
}
