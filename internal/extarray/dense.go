package extarray

// DenseStore backs an array with one flat slice indexed directly by
// address: the memory model of a language runtime that allocates the
// address space a storage mapping names. It makes the §3.2 spread cost
// literal — storing an array whose mapping has spread S(n) allocates S(n)
// slots — and is therefore the store under which the compactness race
// matters most. Capacity grows geometrically to amortize appends.
type DenseStore[T any] struct {
	vals []T
	used []bool
	n    int
	max  int64
}

// NewDenseStore returns an empty DenseStore.
func NewDenseStore[T any]() *DenseStore[T] { return &DenseStore[T]{} }

// Get implements Store.
func (s *DenseStore[T]) Get(addr int64) (T, bool) {
	var zero T
	if addr < 1 || addr > int64(len(s.vals)) {
		return zero, false
	}
	if !s.used[addr-1] {
		return zero, false
	}
	return s.vals[addr-1], true
}

// Set implements Store.
func (s *DenseStore[T]) Set(addr int64, v T) {
	if addr < 1 {
		return
	}
	for int64(len(s.vals)) < addr {
		// Geometric growth, at least to addr.
		newCap := int64(cap(s.vals)) * 2
		if newCap < addr {
			newCap = addr
		}
		grown := make([]T, newCap)
		copy(grown, s.vals)
		s.vals = grown[:newCap]
		grownUsed := make([]bool, newCap)
		copy(grownUsed, s.used)
		s.used = grownUsed[:newCap]
	}
	if !s.used[addr-1] {
		s.used[addr-1] = true
		s.n++
	}
	s.vals[addr-1] = v
	if addr > s.max {
		s.max = addr
	}
}

// Delete implements Store.
func (s *DenseStore[T]) Delete(addr int64) {
	if addr < 1 || addr > int64(len(s.vals)) || !s.used[addr-1] {
		return
	}
	var zero T
	s.vals[addr-1] = zero
	s.used[addr-1] = false
	s.n--
}

// Len implements Store.
func (s *DenseStore[T]) Len() int { return s.n }

// MaxAddr implements Store.
func (s *DenseStore[T]) MaxAddr() int64 { return s.max }

// Scan implements Store by walking the used slots.
func (s *DenseStore[T]) Scan(fn func(addr int64, v T)) {
	for i, u := range s.used {
		if u {
			fn(int64(i)+1, s.vals[i])
		}
	}
}

// Slots returns the allocated slot count — the literal memory bill of the
// mapping's spread.
func (s *DenseStore[T]) Slots() int64 { return int64(len(s.vals)) }
