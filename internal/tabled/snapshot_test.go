package tabled

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pairfn/internal/core"
	"pairfn/internal/extarray"
)

// slabStore is the store every served table in these tests runs on, as
// in tabledserver: the server hands the backend values that alias its
// pooled buffers, and SlabStore copies them.
func slabStore() extarray.Store[string] { return extarray.NewSlabStore() }

// TestShardedSnapshotRoundTrip saves a sharded table and reloads it — with
// a different shard count, which must not matter: the wire format is
// geometry-free.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	f := core.SquareShell{}
	s, err := NewSharded[string](f, 8, slabStore, 32, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(1); x <= 32; x += 3 {
		for y := int64(1); y <= 32; y += 5 {
			if err := s.Set(x, y, "v"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Resize(40, 32); err != nil { // a reshape for the stats
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveAt(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := LoadShardedMeta[string](bytes.NewReader(buf.Bytes()), f, 2, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := l.Dims(); r != 40 || c != 32 {
		t.Fatalf("dims after load: %d×%d", r, c)
	}
	if l.Len() != s.Len() {
		t.Fatalf("Len %d vs %d", l.Len(), s.Len())
	}
	for x := int64(1); x <= 32; x += 3 {
		for y := int64(1); y <= 32; y += 5 {
			if v, ok, err := l.Get(x, y); err != nil || !ok || v != "v" {
				t.Fatalf("Get(%d,%d) after load: %q %v %v", x, y, v, ok, err)
			}
		}
	}
	if st := l.Stats(); st.Reshapes != 1 {
		t.Fatalf("reshapes after load = %d", st.Reshapes)
	}
	// Wrong mapping is rejected by name.
	if _, _, _, err := LoadShardedMeta[string](bytes.NewReader(buf.Bytes()), core.Diagonal{}, 2, slabStore, nil); err == nil {
		t.Fatal("load under wrong mapping should fail")
	}
}

// TestSnapshotCrossCompatible verifies the single-wire-format promise:
// extarray.Array loads a tabled snapshot, and tabled loads an Array
// snapshot, under the same mapping.
func TestSnapshotCrossCompatible(t *testing.T) {
	f := core.Diagonal{}

	s, err := NewSharded[string](f, 4, slabStore, 10, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(3, 4, "from-tabled"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveAt(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	arr, err := extarray.Load[string](&buf, f, extarray.NewMapStore[string]())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := arr.Get(3, 4); err != nil || !ok || v != "from-tabled" {
		t.Fatalf("Array loading tabled snapshot: %q %v %v", v, ok, err)
	}

	buf.Reset()
	if err := arr.Set(5, 6, "from-array"); err != nil {
		t.Fatal(err)
	}
	if err := arr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, _, _, err := LoadShardedMeta[string](&buf, f, 16, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s2.Get(5, 6); err != nil || !ok || v != "from-array" {
		t.Fatalf("tabled loading Array snapshot: %q %v %v", v, ok, err)
	}
}

// TestShardedSaveFileAtomic exercises the file path: SaveFileAt twice (the
// second must atomically replace), then load.
func TestShardedSaveFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tabled.gob")
	f := core.SquareShell{}
	s, err := NewSharded[string](f, 4, slabStore, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(1, 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFileAt(path, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(2, 2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFileAt(path, 0, 0); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := LoadShardedFileMeta[string](path, f, 4, slabStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x, y int64
		want string
	}{{1, 1, "a"}, {2, 2, "b"}} {
		if v, ok, err := l.Get(tc.x, tc.y); err != nil || !ok || v != tc.want {
			t.Fatalf("Get(%d,%d) = %q %v %v", tc.x, tc.y, v, ok, err)
		}
	}
}

// TestLoadRefusesFlippedValue: one bit flipped inside a stored value of a
// SaveFileAt file still decodes as gob (it reads back "HElLOWORLD"), so
// only the frame checksum can refuse it — and LoadShardedFileMeta must.
func TestLoadRefusesFlippedValue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tabled.gob")
	f := core.SquareShell{}
	s, err := NewSharded[string](f, 4, slabStore, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(3, 5, "HELLOWORLD"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFileAt(path, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte("HELLOWORLD"))
	if i < 0 {
		t.Fatal("value not found in the snapshot file")
	}
	b[i+2] ^= 0x20 // 'L' -> 'l'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, _, _, err := LoadShardedFileMeta[string](path, f, 4, slabStore, nil); err == nil {
		v, _, _ := l.Get(3, 5)
		t.Fatalf("flipped snapshot loaded; (3, 5) = %q", v)
	}
}
