package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// refWindow is how long one speed measurement runs the reference loop.
const refWindow = 10 * time.Millisecond

// refRate is the reference loop's round trips per second on the
// calibration box at its median speed, measured between the phases of
// 40 runs (see README.md). Speeds are measured relative to it, so timed
// metrics read about what they would on that box at that speed.
const refRate = 29700

// refBody is the size of the reference server's answer: about a binary
// get batch's response.
const refBody = 4096

// A refLoop measures how fast the machine runs the benchmark's kind of
// work at one moment: loopback HTTP round trips through the standard
// library, with as many client goroutines as the load generator, against
// a server in this process. It runs between phases, while the daemons are
// idle, and shares no code with the program under test, so a change to
// the program does not move it.
//
// The calibration box's speed drifts by up to 2x within minutes, on both
// vCPUs alike. Scaling each phase by the speed measured around it removes
// most of that drift from the timed metrics; see README.md.
type refLoop struct {
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
	url  string
	tr   *http.Transport
	cl   *http.Client
	last float64 // the speed measured at the end of the previous span
}

func startRefLoop() (*refLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := make([]byte, refBody)
	r := &refLoop{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Write(body)
		})},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String() + "/",
		tr:   &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	r.cl = &http.Client{Transport: r.tr, Timeout: requestTimeout}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return r, nil
}

// close stops the reference server and waits until it has stopped.
func (r *refLoop) close() {
	r.tr.CloseIdleConnections()
	_ = r.srv.Close() // the listener's close error leaves nothing to undo
	<-r.done
}

// speed runs the reference loop for refWindow and returns its rate over
// refRate: 1 at the calibration box's median speed, less when the machine
// is slower.
func (r *refLoop) speed() (float64, error) {
	var (
		n    atomic.Int64
		errs [clients]error
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(refWindow)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				resp, err := r.cl.Get(r.url)
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					errs[c] = err
					return
				}
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return 0, err
	}
	return float64(n.Load()) / time.Since(start).Seconds() / refRate, nil
}

// mark measures the speed at the start of a span of work.
func (r *refLoop) mark() error {
	s, err := r.speed()
	r.last = s
	return err
}

// span measures the speed at the end of a span of work and returns the
// span's speed: the mean of the measurements just before and just after
// it. The one after is also the one before the next span.
func (r *refLoop) span() (float64, error) {
	s, err := r.speed()
	f := (r.last + s) / 2
	r.last = s
	return f, err
}
