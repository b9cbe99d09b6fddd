package wbc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pairfn/internal/walog"
)

// §4 describes WBC operationally: "volunteers register with a WBC website
// … each volunteer visits the website from time to time to receive a task
// … returns the results from that task and receives a new task". This file
// is that website: a JSON-over-HTTP facade for a Coordinator, plus a typed
// client. The protocol carries only integers — volunteer ids, task
// indices, results — because the APF is the whole addressing scheme.
//
// Endpoints:
//
//	POST /register  {"speed": 1.5}                     → {"volunteer": 7}
//	POST /next      {"volunteer": 7}                   → {"task": 912}
//	POST /submit    {"volunteer": 7, "task": 912,
//	                 "result": 4}                      → {"caught": false}
//	POST /heartbeat {"volunteer": 7}                   → {"ok": true}
//	GET  /attribute?task=912                           → {"volunteer": 7}
//	GET  /metrics                                      → Prometheus text, or
//	                                                     the JSON Metrics
//	                                                     snapshot with
//	                                                     Accept: application/json
//	GET  /healthz, /readyz                             → probes (observe.go)
//
// Coordinator errors map to HTTP statuses: banned/departed → 403, unknown
// volunteer/task → 404, ownership violations → 409, domain errors → 400,
// a degraded (read-only) coordinator → 503. A body over
// DefaultMaxBodyBytes is a 413, and a request past its deadline a 503
// "request timed out" (see endpoint).

type registerRequest struct {
	Speed float64 `json:"speed"`
}

type registerResponse struct {
	Volunteer VolunteerID `json:"volunteer"`
}

type nextRequest struct {
	Volunteer VolunteerID `json:"volunteer"`
}

type nextResponse struct {
	Task TaskID `json:"task"`
}

type submitRequest struct {
	Volunteer VolunteerID `json:"volunteer"`
	Task      TaskID      `json:"task"`
	Result    int64       `json:"result"`
}

type submitResponse struct {
	Caught bool `json:"caught"`
}

type heartbeatRequest struct {
	Volunteer VolunteerID `json:"volunteer"`
}

type heartbeatResponse struct {
	OK bool `json:"ok"`
}

type attributeResponse struct {
	Volunteer VolunteerID `json:"volunteer"`
	Row       int64       `json:"row"`
	Seq       int64       `json:"seq"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHTTPHandler returns the WBC website serving c with default
// observability: a private metrics registry behind /metrics and no request
// logging. Production servers use NewObservedHandler to share the
// registry with the coordinator and control readiness.
func NewHTTPHandler(c *Coordinator) http.Handler {
	return NewObservedHandler(c, ServerOptions{})
}

// DefaultMaxBodyBytes caps volunteer-protocol request bodies. The
// protocol carries a handful of integers; a kilobyte is generous.
const DefaultMaxBodyBytes = 1 << 12

// A requestError refuses a request before or instead of the coordinator's
// answer: a body too large or malformed, or a request past its deadline
// (see endpoint).
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

var (
	errBodyTooLarge = &requestError{http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds %d bytes", DefaultMaxBodyBytes)}
	errTimedOut = &requestError{http.StatusServiceUnavailable, "request timed out"}
)

// apiMux builds the volunteer-protocol endpoints. The observability
// endpoints (/metrics, /healthz, /readyz) are layered on by
// NewObservedHandler, which owns the registry they report from.
func apiMux(c *Coordinator, timeout time.Duration) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", endpoint(c, timeout, func(req registerRequest) (any, walog.Ticket, error) {
		id, t, err := c.register(req.Speed)
		return registerResponse{Volunteer: id}, t, err
	}))
	mux.HandleFunc("POST /heartbeat", endpoint(c, timeout, func(req heartbeatRequest) (any, walog.Ticket, error) {
		return heartbeatResponse{OK: true}, walog.Ticket{}, c.Heartbeat(req.Volunteer)
	}))
	mux.HandleFunc("POST /next", endpoint(c, timeout, func(req nextRequest) (any, walog.Ticket, error) {
		k, t, err := c.nextTask(req.Volunteer)
		return nextResponse{Task: k}, t, err
	}))
	mux.HandleFunc("POST /submit", endpoint(c, timeout, func(req submitRequest) (any, walog.Ticket, error) {
		caught, t, err := c.submit(req.Volunteer, req.Task, req.Result)
		return submitResponse{Caught: caught}, t, err
	}))
	mux.HandleFunc("POST /depart", endpoint(c, timeout, func(req nextRequest) (any, walog.Ticket, error) {
		t, err := c.depart(req.Volunteer)
		return struct{}{}, t, err
	}))
	// A read of the ledger: nothing to decode and no wait, so no deadline.
	mux.HandleFunc("GET /attribute", func(w http.ResponseWriter, r *http.Request) {
		k, err := strconv.ParseInt(r.URL.Query().Get("task"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "task must be an integer"})
			return
		}
		vol, row, seq, err := c.Ledger().Attribute(TaskID(k))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, attributeResponse{Volunteer: vol, Row: row, Seq: seq})
	})
	return mux
}

// endpoint serves one volunteer-protocol POST: it decodes the body into
// a Req, runs serve, waits for the journal record of the mutation serve
// applied (none: a zero ticket), and answers serve's response or the
// refusal. The request's deadline, arrival + timeout (none when timeout
// ≤ 0), is checked after decoding and before the reply, and it ends a
// journal wait parked behind another mutation's fsync. A request past it
// is answered 503 "request timed out" and the coordinator stays
// writable: only a journal failure degrades it. A step in flight at the
// deadline — an audit's recomputation, or an fsync the request leads —
// is not abandoned, so its 503 comes at the check after it.
func endpoint[Req any](c *Coordinator, timeout time.Duration, serve func(Req) (any, walog.Ticket, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
		}
		var req Req
		var resp any
		err := decode(r, &req)
		if err == nil && !expired(deadline) {
			var t walog.Ticket
			if resp, t, err = serve(req); err == nil {
				err = c.waitDurable(r.Context(), deadline, t)
			}
		}
		if (err == nil && expired(deadline)) || waitEnded(err) {
			err = errTimedOut
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// expired reports whether deadline is set and has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// decode reads r's body, at most DefaultMaxBodyBytes of it, into v. The
// protocol carries a handful of integers; a larger body is abuse, not a
// volunteer.
func decode(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, DefaultMaxBodyBytes+1))
	if err == nil && len(body) > DefaultMaxBodyBytes {
		return errBodyTooLarge
	}
	if err == nil {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	if err != nil {
		return &requestError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr answers a refused request with err's status and a typed JSON
// error. A 413 also closes the connection, since the rest of its body
// stays unread.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *requestError
	switch {
	case errors.As(err, &re):
		status = re.status
		if status == http.StatusRequestEntityTooLarge {
			w.Header().Set("Connection", "close")
		}
	case errors.Is(err, ErrBanned), errors.Is(err, ErrDeparted):
		status = http.StatusForbidden
	case errors.Is(err, ErrUnknownVolunteer), errors.Is(err, ErrUnknownTask):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotIssuedToYou):
		status = http.StatusConflict
	case errors.Is(err, ErrDegraded):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// A StatusError is a non-200 reply from the WBC website. It carries the
// HTTP status code so callers can classify failures: 5xx is the server
// struggling (worth retrying), 4xx is a verdict — a ban, an unknown id, an
// ownership conflict — that no retry will change.
type StatusError struct {
	Code int    // HTTP status code
	Path string // endpoint, e.g. "/next"
	Msg  string // server-provided error message, if any
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wbc: %s: %s (status %d)", e.Path, e.Msg, e.Code)
}

// Client is a typed volunteer-side client for the WBC website.
type Client struct {
	// BaseURL is the server root, e.g. "http://host:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (cl *Client) httpc() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return http.DefaultClient
}

func (cl *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := cl.httpc().Post(cl.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(r.Body).Decode(&e)
		return &StatusError{Code: r.StatusCode, Path: path, Msg: e.Error}
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// Register registers a volunteer with the given speed hint.
func (cl *Client) Register(speed float64) (VolunteerID, error) {
	var resp registerResponse
	if err := cl.post("/register", registerRequest{Speed: speed}, &resp); err != nil {
		return 0, err
	}
	return resp.Volunteer, nil
}

// Next fetches the next task for volunteer id.
func (cl *Client) Next(id VolunteerID) (TaskID, error) {
	var resp nextResponse
	if err := cl.post("/next", nextRequest{Volunteer: id}, &resp); err != nil {
		return 0, err
	}
	return resp.Task, nil
}

// Submit returns the result for task k.
func (cl *Client) Submit(id VolunteerID, k TaskID, result int64) (caught bool, err error) {
	var resp submitResponse
	if err := cl.post("/submit", submitRequest{Volunteer: id, Task: k, Result: result}, &resp); err != nil {
		return false, err
	}
	return resp.Caught, nil
}

// Depart deregisters volunteer id.
func (cl *Client) Depart(id VolunteerID) error {
	var resp struct{}
	return cl.post("/depart", nextRequest{Volunteer: id}, &resp)
}

// Heartbeat renews volunteer id's lease.
func (cl *Client) Heartbeat(id VolunteerID) error {
	var resp heartbeatResponse
	return cl.post("/heartbeat", heartbeatRequest{Volunteer: id}, &resp)
}

// Metrics fetches the coordinator's JSON metrics snapshot (the legacy
// /metrics representation, selected via Accept: application/json; the
// default representation is Prometheus text for scrapers).
func (cl *Client) Metrics() (Metrics, error) {
	req, err := http.NewRequest(http.MethodGet, cl.BaseURL+"/metrics", nil)
	if err != nil {
		return Metrics{}, err
	}
	req.Header.Set("Accept", "application/json")
	r, err := cl.httpc().Do(req)
	if err != nil {
		return Metrics{}, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return Metrics{}, &StatusError{Code: r.StatusCode, Path: "/metrics"}
	}
	var m Metrics
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// Attribute asks the server who computed task k.
func (cl *Client) Attribute(k TaskID) (VolunteerID, error) {
	r, err := cl.httpc().Get(fmt.Sprintf("%s/attribute?task=%d", cl.BaseURL, k))
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(r.Body).Decode(&e)
		return 0, &StatusError{Code: r.StatusCode, Path: "/attribute", Msg: e.Error}
	}
	var resp attributeResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return 0, err
	}
	return resp.Volunteer, nil
}
