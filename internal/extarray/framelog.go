package extarray

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file is the frame layer shared by every append-only log in the repo
// (today: tabled's write-ahead log). A frame is
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

// ErrFrameTooLarge is returned by AppendFrame and EncodeFrame for payloads
// over MaxFramePayload, and reported as a torn tail by ReadFrames when a
// length prefix exceeds it (a corrupt length is indistinguishable from a
// torn write).
var ErrFrameTooLarge = fmt.Errorf("extarray: frame exceeds %d bytes", int64(MaxFramePayload))

// AppendFrame writes one framed record to w and returns the number of
// bytes written (frameHeaderSize + len(payload) on success). A short write
// returns the error from w; the caller owns recovery (for a log file:
// truncate back to the pre-append offset, or let the next boot's ReadFrames
// cut the torn tail).
func AppendFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxFramePayload {
		return 0, ErrFrameTooLarge
	}
	var hdr [frameHeaderSize]byte
	n, err := w.Write(appendFrameHeader(hdr[:0], payload))
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// EncodeFrame appends one framed record carrying payload to dst — the
// bytes AppendFrame writes — so a caller can write it in one call.
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
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, false, nil // clean end of log
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil // torn header
			}
			return valid, false, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxFramePayload {
			return valid, true, nil // corrupt length prefix
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil // torn payload
			}
			return valid, false, err
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return valid, true, nil // bit rot or torn overwrite
		}
		if err := fn(buf); err != nil {
			return valid, false, err
		}
		valid += int64(frameHeaderSize) + int64(n)
	}
}
