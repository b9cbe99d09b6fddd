package tabled

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pairfn/internal/obs"
	"pairfn/internal/srvkit"
)

// This file is the member side of the upgraded batch connection
// (docs/WIRE.md §7), the router's sub-batch wire. A router dials
// ConnPath once per pooled connection and then runs back-to-back
// exchanges over it, one at a time: an idempotency key and a §2 request
// frame in, a status, a WAL position and either a §2 response frame or the
// refusal text out. Each exchange runs the same code as a binary POST
// /v1/batch — the frame decode and serve, with its gates, replication ack,
// idempotency cache and pooled scratch — minus the per-request HTTP
// parsing and header maps that made the member hop cost more than the
// batch it carried. The batch timeout runs from the exchange's first
// byte, as a POST's runs from its arrival.

// ConnPath is the member route that upgrades a connection to the batch
// exchange protocol.
const ConnPath = "/v1/batch/conn"

// ConnProtocol is the protocol token of ConnPath's HTTP/1.1 Upgrade.
const ConnProtocol = "tabled-batch/1"

// maxExchangeKey caps an exchange's idempotency key in bytes. A longer
// key is refused (400) and the connection closed, since the member does
// not read the rest of that request.
const maxExchangeKey = 1024

// exchangeMethod is the method an exchange is logged under, beside the
// path of the batch route it stands in for.
const exchangeMethod = "EXCHANGE"

// handleConn upgrades the connection and serves exchanges on it until the
// peer closes it, the idle deadline reaps it, a drain stops it, or a
// request leaves the stream unreadable.
func (s *server) handleConn(w http.ResponseWriter, r *http.Request) {
	uc, err := srvkit.Upgrade(w, r, ConnProtocol)
	if err != nil {
		return // Upgrade answered the request
	}
	defer uc.Close()
	s.opt.Metrics.connOpen(1)
	defer s.opt.Metrics.connOpen(-1)
	scr := wirePool.Get().(*wireScratch)
	defer wirePool.Put(scr)
	ctx := r.Context()
	uc.Serve(func() bool { return s.exchange(ctx, uc.R, uc.W, scr, s.batchRoute, r.RemoteAddr) })
}

// exchange reads one request from br and writes its reply to bw
// (unflushed), recording it as a /v1/batch request on rt. It reports
// whether the connection can carry another exchange: false after an I/O
// error (nothing is answered) or a request the member refuses to read to
// its end (answered, then the connection closes).
func (s *server) exchange(ctx context.Context, br *bufio.Reader, bw *bufio.Writer, scr *wireScratch, rt *obs.Route, remote string) bool {
	start := time.Now()
	deadline := BatchDeadline(start, s.opt.BatchTimeout)
	key, minPos, status, msg, err := s.readExchange(br, scr)
	if err != nil {
		return false
	}
	keep := status == 0
	var out []byte
	var pos [1]uint64
	if keep {
		out, pos[0], status, msg = s.answer(ctx, deadline, key, minPos, scr)
	}
	n := writeReply(bw, status, pos[:], out, msg)
	rt.Observe(ctx, exchangeMethod, "/v1/batch", remote, status, int64(n), time.Since(start))
	s.opt.Metrics.connExchange()
	return keep
}

// writeReply writes one reply envelope to bw, unflushed, in the shape
// both upgraded wires share (docs/WIRE.md §7, §8): the status, the wire's
// header fields, the body's length, then the body — out on a 200, the
// refusal text msg otherwise (the other one is empty). It returns the
// body's length.
func writeReply(bw *bufio.Writer, status int, fields []uint64, out []byte, msg string) int {
	n := len(out) + len(msg)
	b := binary.AppendUvarint(bw.AvailableBuffer(), uint64(status))
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	bw.Write(binary.AppendUvarint(b, uint64(n)))
	bw.Write(out)
	bw.WriteString(msg)
	return n
}

// readReply reads one reply envelope written by writeReply from br: the
// status, len(fields) header fields into fields, and the body. The body
// may be at most limit bytes on a 200 and maxRefusal otherwise; a longer
// one is an ErrRemote error, returned before any of it is read, since
// the stream is not speaking the protocol. The body is read into buf's
// capacity, or a fresh slice when that is short.
func readReply(br *bufio.Reader, fields []uint64, limit int, buf []byte) (status int, body []byte, err error) {
	st, err := binary.ReadUvarint(br)
	for i := 0; i < len(fields) && err == nil; i++ {
		fields[i], err = binary.ReadUvarint(br)
	}
	var n uint64
	if err == nil {
		n, err = binary.ReadUvarint(br)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if st != http.StatusOK {
		limit = maxRefusal
	}
	if n > uint64(limit) {
		return int(st), nil, fmt.Errorf("%w: reply %d with a %d-byte body", ErrRemote, st, n)
	}
	body = grow(buf[:0], int(n))
	if _, err := io.ReadFull(br, body); err != nil {
		return int(st), nil, fmt.Errorf("reading body: %w", err)
	}
	return int(st), body, nil
}

// readExchange reads one request envelope into scr: the key, the minimum
// position, then the frame into scr.body, its declared length checked
// against the body cap before the payload is read. A non-zero status is a
// refusal that ends the connection (the rest of the request stays
// unread); err is an I/O error.
func (s *server) readExchange(br *bufio.Reader, scr *wireScratch) (key []byte, minPos uint64, status int, msg string, err error) {
	klen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, "", err
	}
	if klen > maxExchangeKey {
		return nil, 0, http.StatusBadRequest,
			fmt.Sprintf("bad request: idempotency key of %d bytes exceeds %d", klen, maxExchangeKey), nil
	}
	scr.key = grow(scr.key, int(klen))
	if _, err := io.ReadFull(br, scr.key); err != nil {
		return nil, 0, 0, "", err
	}
	if minPos, err = binary.ReadUvarint(br); err != nil {
		return nil, 0, 0, "", err
	}
	scr.body = grow(scr.body, wireHeaderSize)
	if _, err := io.ReadFull(br, scr.body); err != nil {
		return nil, 0, 0, "", err
	}
	size := wireHeaderSize + int64(binary.LittleEndian.Uint32(scr.body))
	if limit := s.opt.MaxBodyBytes; limit > 0 && size > limit {
		return nil, 0, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit), nil
	}
	if size > wireHeaderSize+MaxWirePayload {
		return nil, 0, http.StatusBadRequest,
			fmt.Sprintf("bad request: %v: payload of %d bytes exceeds %d", ErrBadFrame, size-wireHeaderSize, int64(MaxWirePayload)), nil
	}
	scr.body = grow(scr.body, int(size))
	if _, err := io.ReadFull(br, scr.body[wireHeaderSize:]); err != nil {
		return nil, 0, 0, "", err
	}
	return scr.key, minPos, 0, "", nil
}

// answer decodes the frame in scr.body and serves it by deadline exactly
// as a binary POST /v1/batch is served, returning the reply's §4 frame
// (aliasing scr.out) or its refusal. The key aliases scr.key for the
// exchange.
func (s *server) answer(ctx context.Context, deadline time.Time, key []byte, minPos uint64, scr *wireScratch) (out []byte, pos uint64, status int, msg string) {
	ops, err := scr.decode(true, s.opt.MaxBatch)
	if err != nil {
		return nil, 0, http.StatusBadRequest, "bad request: " + err.Error()
	}
	rep := s.serve(ctx, deadline, aliasString(key), minPos, ops, scr)
	if rep.status != http.StatusOK {
		return nil, 0, rep.status, rep.msg
	}
	if out, err = AppendBatchResponse(scr.out[:0], rep.results); err != nil {
		return nil, 0, http.StatusInternalServerError, "encoding response: " + err.Error()
	}
	scr.out = out
	return out, rep.pos, http.StatusOK, ""
}

// walPos is the WAL's commit position: the number of records logged,
// counting those checkpointed away. 0 without a WAL.
func (s *server) walPos() uint64 {
	if s.opt.WAL == nil {
		return 0
	}
	_, next := s.opt.WAL.SeqState()
	return next
}

// behind reports whether this server is an unpromoted follower that has
// applied fewer than minPos records, and how many it has applied. Primaries
// and promoted followers are never behind: the position only gates reads
// offloaded to a replica.
func (s *server) behind(minPos uint64) (applied uint64, ok bool) {
	if minPos == 0 || s.opt.Repl == nil || s.opt.Repl.Follower == nil {
		return 0, false
	}
	f := s.opt.Repl.Follower
	applied = f.Applied()
	return applied, applied < minPos && !f.Promoted()
}

// grow returns b resized to n bytes, reusing its capacity; the bytes b
// held are kept.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n)
		copy(nb, b)
		return nb
	}
	return b[:n]
}
