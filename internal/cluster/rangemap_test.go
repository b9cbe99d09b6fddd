package cluster

import (
	"errors"
	"fmt"
	"testing"
)

func spec3() *Spec {
	return &Spec{
		Mapping: "diagonal",
		Nodes: []NodeSpec{
			{Name: "a", Base: "http://a", Lo: 1, Hi: 100},
			{Name: "b", Base: "http://b", Lo: 100, Hi: 250},
			{Name: "c", Base: "http://c", Lo: 250, Hi: 1000},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := spec3().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"no mapping", func(s *Spec) { s.Mapping = "" }},
		{"unnamed node", func(s *Spec) { s.Nodes[1].Name = "" }},
		{"duplicate name", func(s *Spec) { s.Nodes[2].Name = "a" }},
		{"no base", func(s *Spec) { s.Nodes[0].Base = "" }},
		{"empty range", func(s *Spec) { s.Nodes[1].Hi = s.Nodes[1].Lo }},
		{"inverted range", func(s *Spec) { s.Nodes[1].Hi = s.Nodes[1].Lo - 10 }},
		{"first range not at 1", func(s *Spec) { s.Nodes[0].Lo = 2 }},
		{"gap", func(s *Spec) { s.Nodes[2].Lo = 260 }},
		{"overlap", func(s *Spec) { s.Nodes[2].Lo = 200 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := spec3()
			tc.mutate(s)
			err := s.Validate()
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("Validate = %v, want ErrSpec", err)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{"mapping":"diagonal","nodes":[
		{"name":"n0","base":"http://x","lo":1,"hi":50},
		{"name":"n1","base":"http://y","lo":50,"hi":200}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 2 || s.Nodes[1].Hi != 200 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseSpec([]byte(`{not json`)); !errors.Is(err, ErrSpec) {
		t.Fatalf("garbage parse = %v, want ErrSpec", err)
	}
	if _, err := ParseSpec([]byte(`{"mapping":"m","nodes":[{"name":"n","base":"b","lo":2,"hi":9}]}`)); !errors.Is(err, ErrSpec) {
		t.Fatalf("invalid tiling = %v, want ErrSpec", err)
	}
}

func TestEvenSpec(t *testing.T) {
	s, err := EvenSpec("diagonal", []string{"http://a", "http://b", "http://c"}, 100, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Nodes); got != 3 {
		t.Fatalf("nodes = %d", got)
	}
	if s.Nodes[0].Lo != 1 || s.Nodes[2].Hi != 1<<30 {
		t.Fatalf("span [%d, %d)", s.Nodes[0].Lo, s.Nodes[2].Hi)
	}
	for i := 1; i < len(s.Nodes); i++ {
		if s.Nodes[i].Lo != s.Nodes[i-1].Hi {
			t.Fatalf("not contiguous at %d: %+v", i, s.Nodes)
		}
	}
	if _, err := EvenSpec("diagonal", nil, 100, 0); !errors.Is(err, ErrSpec) {
		t.Fatalf("no bases = %v, want ErrSpec", err)
	}
	if _, err := EvenSpec("diagonal", []string{"a", "b", "c"}, 2, 0); !errors.Is(err, ErrSpec) {
		t.Fatalf("maxAddr below node count = %v, want ErrSpec", err)
	}
}

func TestRangeMapBoundaries(t *testing.T) {
	rm, err := NewRangeMap(spec3())
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.NumNodes(); got != 3 {
		t.Fatalf("NumNodes = %d", got)
	}
	cases := []struct {
		addr int64
		want int
	}{
		{1, 0},   // very first address
		{99, 0},  // last of node a
		{100, 1}, // exactly on a boundary: belongs to the upper node
		{249, 1}, // last of node b
		{250, 2}, // boundary again
		{999, 2}, // last owned address
	}
	for _, tc := range cases {
		n, err := rm.NodeFor(tc.addr)
		if err != nil || n != tc.want {
			t.Errorf("NodeFor(%d) = %d, %v; want %d", tc.addr, n, err, tc.want)
		}
	}
	// Addresses no range owns are a typed per-op error, never a panic.
	for _, addr := range []int64{0, -5, 1000, 1 << 40} {
		if _, err := rm.NodeFor(addr); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("NodeFor(%d) err = %v, want ErrOutOfRange", addr, err)
		}
	}
}

func TestRangeMapSingleNode(t *testing.T) {
	s := &Spec{Mapping: "diagonal", Nodes: []NodeSpec{{Name: "solo", Base: "http://s", Lo: 1, Hi: 1 << 40}}}
	rm, err := NewRangeMap(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int64{1, 2, 1 << 39, 1<<40 - 1} {
		n, err := rm.NodeFor(addr)
		if err != nil || n != 0 {
			t.Fatalf("NodeFor(%d) = %d, %v", addr, n, err)
		}
	}
	if _, err := rm.NodeFor(1 << 40); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-end err = %v, want ErrOutOfRange", err)
	}
}

func TestRangeMapManyNodesExhaustive(t *testing.T) {
	// Every address in a small tiled space maps to the node whose range
	// holds it — cross-checked against a linear scan.
	s := &Spec{Mapping: "diagonal"}
	lo := int64(1)
	for i := 0; i < 7; i++ {
		hi := lo + int64(3+i)
		s.Nodes = append(s.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", i), Base: "http://n", Lo: lo, Hi: hi})
		lo = hi
	}
	rm, err := NewRangeMap(s)
	if err != nil {
		t.Fatal(err)
	}
	for addr := int64(1); addr < lo; addr++ {
		want := -1
		for i, n := range s.Nodes {
			if addr >= n.Lo && addr < n.Hi {
				want = i
			}
		}
		got, err := rm.NodeFor(addr)
		if err != nil || got != want {
			t.Fatalf("NodeFor(%d) = %d, %v; want %d", addr, got, err, want)
		}
	}
}
