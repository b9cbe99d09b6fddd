package cluster

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// limiterMaxClients bounds the per-client bookkeeping map; past it, Allow
// sweeps entries idle for two windows before admitting new clients. A
// router fronting millions of users sees far fewer distinct client IPs per
// window than this at any sane limit.
const limiterMaxClients = 65536

// A Limiter is the router front door's per-client admission control: a
// sliding-window counter in the two-bucket approximation (current window
// count plus the previous window's, weighted by overlap — the classic
// trade of one timestamped deque per client for two integers). A client
// is admitted while its estimated rate over the trailing window stays
// below Limit.
//
// The zero Limiter admits everything (Limit 0 disables).
type Limiter struct {
	// Limit is the admitted requests per Window per client (≤ 0 = off).
	Limit int
	// Window is the sliding window length (0 → 1s).
	Window time.Duration
	// Now is the clock seam for tests (nil → time.Now).
	Now func() time.Time

	mu sync.Mutex
	m  map[string]*window
}

type window struct {
	start     time.Time // start of the current bucket
	cur, prev int
}

func (l *Limiter) span() time.Duration {
	if l.Window > 0 {
		return l.Window
	}
	return time.Second
}

func (l *Limiter) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

// Allow records one request for key and reports whether it is admitted.
func (l *Limiter) Allow(key string) bool {
	ok, _ := l.AllowHint(key)
	return ok
}

// AllowHint is Allow plus, on refusal, the earliest wait after which a
// retry can plausibly be admitted — the Retry-After value the middleware
// sends, computed from the same two-bucket state that refused: the
// estimate decays as the previous bucket slides out of the window, so the
// hint is when it first dips below the limit (never less than a
// millisecond, and at most a full window, after which the current bucket
// itself has rotated out).
func (l *Limiter) AllowHint(key string) (ok bool, after time.Duration) {
	if l.Limit <= 0 {
		return true, 0
	}
	w := l.span()
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]*window)
	}
	e := l.m[key]
	if e == nil {
		if len(l.m) >= limiterMaxClients {
			l.sweepLocked(now, w)
		}
		e = &window{start: now}
		l.m[key] = e
	}
	// Rotate buckets forward to the window containing now.
	switch elapsed := now.Sub(e.start); {
	case elapsed >= 2*w:
		e.start, e.cur, e.prev = now, 0, 0
	case elapsed >= w:
		e.start, e.prev, e.cur = e.start.Add(w), e.cur, 0
	}
	// Weighted estimate over the trailing window: the previous bucket
	// counts by how much of it the window still covers.
	frac := 1 - float64(now.Sub(e.start))/float64(w)
	if frac < 0 {
		frac = 0
	}
	est := float64(e.cur) + frac*float64(e.prev)
	if est >= float64(l.Limit) {
		return false, l.hintLocked(e, now, w)
	}
	e.cur++
	return true, 0
}

// hintLocked computes when the sliding estimate first admits this client
// again. With cur already at or past the limit, only the window rotation
// helps — wait until the current bucket ends. Otherwise the surplus is
// prev's weighted contribution, which decays linearly: it drops below the
// headroom (Limit − cur) once the window has slid far enough, solvable in
// closed form.
func (l *Limiter) hintLocked(e *window, now time.Time, w time.Duration) time.Duration {
	windowEnd := e.start.Add(w).Sub(now)
	if windowEnd < time.Millisecond {
		windowEnd = time.Millisecond
	}
	headroom := float64(l.Limit - e.cur)
	if headroom <= 0 || e.prev <= 0 {
		return windowEnd
	}
	// Need frac·prev < headroom, frac = 1 − (now+after − start)/w:
	// after > w·(1 − headroom/prev) − (now − start).
	after := time.Duration((1 - headroom/float64(e.prev)) * float64(w))
	after -= now.Sub(e.start)
	if after < time.Millisecond {
		after = time.Millisecond
	}
	if after > windowEnd {
		after = windowEnd
	}
	return after
}

// sweepLocked drops clients idle for at least two windows.
func (l *Limiter) sweepLocked(now time.Time, w time.Duration) {
	for k, e := range l.m {
		if now.Sub(e.start) >= 2*w {
			delete(l.m, k)
		}
	}
}

// ClientKey is the default admission key: the client IP (RemoteAddr
// without the port). Deployments behind a trusted proxy would swap in a
// keyFn reading the forwarded address instead.
func ClientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Middleware wraps next with admission control: a request over the limit
// answers 429 with a Retry-After hint and never reaches next. keyFn nil
// uses ClientKey; a nil or disabled limiter passes everything through.
func (l *Limiter) Middleware(keyFn func(*http.Request) string, m *Metrics, next http.Handler) http.Handler {
	if l == nil || l.Limit <= 0 {
		return next
	}
	if keyFn == nil {
		keyFn = ClientKey
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ok, after := l.AllowHint(keyFn(r)); !ok {
			m.rateLimited()
			// Retry-After is whole seconds on the wire; round up so the
			// hinted retry lands after admission reopens, not just before.
			secs := int64((after + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			http.Error(w, "cluster: rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}
