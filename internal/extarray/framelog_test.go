package extarray

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// appendFrame writes the frame carrying p to buf, as a log append does.
func appendFrame(buf *bytes.Buffer, p []byte) (int, error) {
	frame, err := EncodeFrame(nil, p)
	if err != nil {
		return 0, err
	}
	return buf.Write(frame)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("first"),
		{},
		[]byte("a longer third record with some structure: 1,2,3"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var wrote int64
	for _, p := range payloads {
		n, err := appendFrame(&buf, p)
		if err != nil {
			t.Fatal(err)
		}
		if int64(n) != FrameLen(p) {
			t.Fatalf("appendFrame wrote %d bytes, FrameLen says %d", n, FrameLen(p))
		}
		wrote += int64(n)
	}
	var got [][]byte
	valid, torn, err := ReadFrames(bytes.NewReader(buf.Bytes()), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || torn {
		t.Fatalf("ReadFrames: valid=%d torn=%v err=%v", valid, torn, err)
	}
	if valid != wrote {
		t.Fatalf("valid offset %d, want %d", valid, wrote)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("frame %d: got %q want %q", i, got[i], payloads[i])
		}
	}
}

// TestFrameTornTail verifies the crash contract: truncating the stream at
// every possible byte offset inside the final frame yields exactly the
// preceding intact frames, a torn flag, and the right truncation offset —
// never an error, never a garbage frame.
func TestFrameTornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := appendFrame(&buf, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	goodLen := int64(buf.Len())
	if _, err := appendFrame(&buf, []byte("the torn one")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// cut == goodLen is a clean EOF (the append never reached the disk at
	// all), so the torn range starts one byte in.
	for cut := goodLen + 1; cut < int64(len(full)); cut++ {
		var got []string
		valid, torn, err := ReadFrames(bytes.NewReader(full[:cut]), func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: err %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		if valid != goodLen {
			t.Fatalf("cut %d: valid=%d, want %d", cut, valid, goodLen)
		}
		if len(got) != 1 || got[0] != "keep me" {
			t.Fatalf("cut %d: frames %q", cut, got)
		}
	}
}

// TestFrameCorruptMiddle verifies that a flipped bit anywhere stops replay
// at the last frame whose checksum still holds.
func TestFrameCorruptMiddle(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if _, err := appendFrame(&buf, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	one := FrameLen([]byte("record-0"))
	data := append([]byte(nil), buf.Bytes()...)
	data[one+frameHeaderSize] ^= 0x01 // flip a payload bit in record 1
	var got []string
	valid, torn, err := ReadFrames(bytes.NewReader(data), func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil || !torn {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	if valid != one || len(got) != 1 || got[0] != "record-0" {
		t.Fatalf("valid=%d frames=%q", valid, got)
	}
}

// TestFrameCorruptLength verifies a damaged length prefix cannot force a
// huge allocation: it reads as a torn tail.
func TestFrameCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	if _, err := appendFrame(&buf, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	off := int64(buf.Len())
	if _, err := appendFrame(&buf, []byte("victim")); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(data[off:], uint32(MaxFramePayload)+1)
	valid, torn, err := ReadFrames(bytes.NewReader(data), func([]byte) error { return nil })
	if err != nil || !torn || valid != off {
		t.Fatalf("valid=%d torn=%v err=%v, want %d true nil", valid, torn, err, off)
	}
}

func TestEncodeFrameRejectsOversize(t *testing.T) {
	dst, err := EncodeFrame(nil, make([]byte, MaxFramePayload+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if len(dst) != 0 {
		t.Fatal("oversize encode appended bytes")
	}
}

func TestReadFramesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if _, err := appendFrame(&buf, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("stop")
	_, _, err := ReadFrames(bytes.NewReader(buf.Bytes()), func([]byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback error", err)
	}
}

// TestFramedRoundTrip checks the state-file codec's layout — gob cut into
// 64 KiB frames, the last one partial — and that it fails closed on a
// stream cut at a frame boundary and on bytes after the value.
func TestFramedRoundTrip(t *testing.T) {
	type state struct {
		Name string
		Blob []byte
	}
	in := state{Name: "big", Blob: bytes.Repeat([]byte{0x5a}, 2*stateChunk+123)}
	var buf bytes.Buffer
	if err := EncodeFramed(&buf, in); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var stream []byte
	valid, torn, err := ReadFrames(bytes.NewReader(buf.Bytes()), func(p []byte) error {
		sizes = append(sizes, len(p))
		stream = append(stream, p...)
		return nil
	})
	if err != nil || torn || valid != int64(buf.Len()) {
		t.Fatalf("ReadFrames: valid=%d of %d torn=%v err=%v", valid, buf.Len(), torn, err)
	}
	if len(sizes) != 3 || sizes[0] != stateChunk || sizes[1] != stateChunk || sizes[2] == 0 || sizes[2] > stateChunk {
		t.Fatalf("frame payload sizes %v, want two of %d and a partial one", sizes, stateChunk)
	}
	var plain bytes.Buffer
	if err := gob.NewEncoder(&plain).Encode(in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, plain.Bytes()) {
		t.Fatal("frame payloads are not the plain gob stream")
	}

	var out state
	if err := DecodeFramed(bytes.NewReader(buf.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || !bytes.Equal(out.Blob, in.Blob) {
		t.Fatal("round trip changed the value")
	}
	// A file cut after whole frames passes every checksum; gob must still
	// see the value end early.
	one := frameHeaderSize + stateChunk
	if err := DecodeFramed(bytes.NewReader(buf.Bytes()[:one]), &out); err == nil {
		t.Fatal("stream cut at a frame boundary decoded")
	}
	trailing, _ := EncodeFrame(append([]byte(nil), buf.Bytes()...), []byte("extra"))
	if err := DecodeFramed(bytes.NewReader(trailing), &out); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing frame: err = %v", err)
	}
}

// TestDecodeFramedRefusesUnframed: a state file in the old unframed format
// (plain gob, or JSON) is refused with an error naming the expected one.
func TestDecodeFramedRefusesUnframed(t *testing.T) {
	var plain bytes.Buffer
	if err := gob.NewEncoder(&plain).Encode(SnapshotData[string]{Mapping: "square-shell", Rows: 1, Cols: 1}); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"gob":   plain.Bytes(),
		"json":  []byte(`{"base":7,"marks":[{"epoch":1,"start":3}]}`),
		"empty": nil,
	} {
		_, err := DecodeSnapshot[string](bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%s: unframed file decoded", name)
		}
		if name != "empty" && !strings.Contains(err.Error(), "CRC32C-framed gob") {
			t.Errorf("%s: error %q does not name the expected format", name, err)
		}
	}
}

// gobBomb stands in for hostile gob input that panics the decoder: its
// GobDecode panics, and gob passes that panic through.
type gobBomb struct{}

func (gobBomb) GobEncode() ([]byte, error) { return []byte{1}, nil }
func (*gobBomb) GobDecode([]byte) error    { panic("hostile input") }

// TestDecodeFramedRecoversGobPanic keeps DecodeFramed's recover tested:
// frames with valid checksums whose gob panics the decoder, or is
// garbage, must come back as an error, never a panic.
func TestDecodeFramedRecoversGobPanic(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &SnapshotData[gobBomb]{Addrs: []int64{1}, Values: []gobBomb{{}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot[gobBomb](bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "hostile input") {
		t.Fatalf("panicking gob: err = %v", err)
	}
	for _, garbage := range [][]byte{
		[]byte("not a gob"),
		bytes.Repeat([]byte{0xff}, 64),
		{0x03, 0xff, 0x81, 0x00},
	} {
		framed, _ := EncodeFrame(nil, garbage)
		if _, err := DecodeSnapshot[string](bytes.NewReader(framed)); err == nil {
			t.Fatalf("framed garbage %x decoded", garbage)
		}
	}
}
