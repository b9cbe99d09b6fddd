package extarray

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the frame layer shared by every append-only log in the repo
// (internal/walog) and every durable state file (EncodeFramed). A frame is
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// so a reader can both detect a torn tail (a crash mid-append leaves a
// short or checksum-failing final frame) and refuse to trust anything past
// the first damaged byte: replay stops at the last intact frame and the
// caller truncates there. Castagnoli is the polynomial with hardware
// support on amd64/arm64, so framing costs are dominated by the write
// itself.

// MaxFramePayload caps a single frame at 16 MiB. The cap exists so a
// corrupted length prefix cannot make a reader allocate unbounded memory —
// the same class of bug the snapshot decoder guards against.
const MaxFramePayload = 16 << 20

// castagnoli is the CRC32C table used for all frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the fixed per-frame overhead: length + checksum.
const frameHeaderSize = 8

// ErrFrameTooLarge is returned by EncodeFrame for payloads
// over MaxFramePayload, and reported as a torn tail by ReadFrames when a
// length prefix exceeds it (a corrupt length is indistinguishable from a
// torn write).
var ErrFrameTooLarge = fmt.Errorf("extarray: frame exceeds %d bytes", int64(MaxFramePayload))

// EncodeFrame appends one framed record carrying payload to dst, so a
// caller can write it in one call.
func EncodeFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, ErrFrameTooLarge
	}
	return append(appendFrameHeader(dst, payload), payload...), nil
}

// appendFrameHeader appends the header of the frame carrying payload.
func appendFrameHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// FrameLen returns the on-disk size of a frame carrying len(payload) bytes.
func FrameLen(payload []byte) int64 { return int64(frameHeaderSize + len(payload)) }

// errTornFrame is readFrame's report of a short, oversized or
// checksum-failing frame. ReadFrames turns it into a torn tail; to
// DecodeFramed it is the whole story.
var errTornFrame = errors.New("torn or corrupt frame (want an intact CRC32C-framed gob state file)")

// readFrame reads the next frame from r, using hdr for its header and buf
// (reused when it has room) for its payload, and returns the payload. It
// returns io.EOF at a clean end, errTornFrame for a frame that is short,
// longer than limit or fails its checksum, and other read errors as is.
func readFrame(r io.Reader, hdr *[frameHeaderSize]byte, buf []byte, limit uint32) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornFrame // torn header
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > limit {
		return nil, errTornFrame // corrupt length prefix
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornFrame // torn payload
		}
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame // bit rot or torn overwrite
	}
	return buf, nil
}

// ReadFrames scans r from the current position, invoking fn once per
// intact frame with its payload (the slice is reused; fn must copy what it
// keeps). It returns the byte offset just past the last intact frame and
// whether the scan stopped at a torn or corrupt record rather than a clean
// EOF. A torn tail is NOT an error — it is the expected residue of a crash
// mid-append, and the caller truncates the log to valid and carries on. An
// error is returned only for real read failures or a non-nil error from fn
// (which aborts the scan).
func ReadFrames(r io.Reader, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	var (
		hdr [frameHeaderSize]byte
		buf []byte
	)
	for {
		p, err := readFrame(br, &hdr, buf, MaxFramePayload)
		switch {
		case errors.Is(err, io.EOF):
			return valid, false, nil // clean end of log
		case errors.Is(err, errTornFrame):
			return valid, true, nil
		case err != nil:
			return valid, false, err
		}
		if err := fn(p); err != nil {
			return valid, false, err
		}
		buf = p
		valid += FrameLen(p)
	}
}

// stateChunk caps one frame of a state file: a flipped byte poisons one
// frame, and framing costs 8 bytes in 64 KiB.
const stateChunk = 64 << 10

// EncodeFramed writes v to w as a durable state file: v's gob encoding in
// frames of at most 64 KiB of payload, read back by DecodeFramed.
func EncodeFramed(w io.Writer, v any) error {
	cw := &chunkWriter{w: w, buf: make([]byte, frameHeaderSize, frameHeaderSize+stateChunk)}
	if err := gob.NewEncoder(cw).Encode(v); err != nil {
		return err
	}
	return cw.flush()
}

// chunkWriter frames the bytes written to it, stateChunk to a frame; buf
// is the frame being filled, header space first.
type chunkWriter struct {
	w   io.Writer
	buf []byte
}

func (cw *chunkWriter) Write(p []byte) (n int, err error) {
	for {
		k := copy(cw.buf[len(cw.buf):cap(cw.buf)], p[n:])
		cw.buf, n = cw.buf[:len(cw.buf)+k], n+k
		if n == len(p) {
			return n, nil
		}
		if err := cw.flush(); err != nil { // full, and more to come
			return n, err
		}
	}
}

func (cw *chunkWriter) flush() error {
	if len(cw.buf) == frameHeaderSize {
		return nil
	}
	appendFrameHeader(cw.buf[:0], cw.buf[frameHeaderSize:])
	_, err := cw.w.Write(cw.buf)
	cw.buf = cw.buf[:frameHeaderSize]
	return err
}

// DecodeFramed reads a state file written by EncodeFramed from r into the
// pointer v. It fails closed: gob reads a frame only after its checksum
// holds, and a torn frame, an early end or bytes after the value are
// errors, as a state file, unlike a log, has no legitimate torn tail. gob
// can panic on hostile input whose checksums hold; recover makes that an
// error too.
func DecodeFramed(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("extarray: framed gob: corrupt stream: %v", p)
		}
	}()
	fr := &frameReader{r: r}
	// A damaged first frame costs one checksum, not a gob decoder.
	if err = fr.next(); err == nil || errors.Is(err, io.EOF) {
		err = gob.NewDecoder(fr).Decode(v)
	}
	if err == nil {
		if _, err = fr.ReadByte(); err == nil {
			err = errors.New("trailing bytes after the value")
		} else if errors.Is(err, io.EOF) {
			return nil
		}
	}
	return fmt.Errorf("extarray: framed gob: %w", err)
}

// frameReader hands out the verified payload bytes of a framed stream, one
// whole frame at a time. As an io.ByteReader it keeps gob from reading
// ahead, so DecodeFramed sees what follows the value.
type frameReader struct {
	r   io.Reader
	hdr [frameHeaderSize]byte
	buf []byte // the current frame's payload
	off int    // read position in buf
	err error  // sticky: the first error next met
}

func (fr *frameReader) Read(p []byte) (int, error) {
	for fr.off == len(fr.buf) {
		if err := fr.next(); err != nil {
			return 0, err
		}
	}
	n := copy(p, fr.buf[fr.off:])
	fr.off += n
	return n, nil
}

func (fr *frameReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := fr.Read(b[:])
	return b[0], err
}

// next loads the next frame. Its error, io.EOF at a clean end included,
// is sticky.
func (fr *frameReader) next() error {
	if fr.err == nil {
		fr.buf, fr.err = readFrame(fr.r, &fr.hdr, fr.buf, stateChunk)
		fr.off = 0
	}
	return fr.err
}
