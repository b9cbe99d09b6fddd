package extarray

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSlabStoreGetImmutable holds strings returned by Get while writers
// overwrite, delete and force arena compactions, then checks that every
// held string still reads as it did under the lock. Run under -race, a
// store that wrote published bytes again would also be reported as a
// race between the writer's copy and the reader's compare.
func TestSlabStoreGetImmutable(t *testing.T) {
	const slots = 1200 // a direct page and a sparse one
	var (
		mu          sync.RWMutex
		s           = NewSlabStore()
		compactions int
		lastDead    int64
	)
	value := func(rng *rand.Rand) string {
		n := 1 + rng.Intn(2000)
		if rng.Intn(50) == 0 {
			n = slabChunk + rng.Intn(slabChunk)
		}
		body := strconv.FormatInt(rng.Int63(), 36)
		return strings.Repeat(body, n/len(body)+1)[:n]
	}
	seed := rand.New(rand.NewSource(1))
	for a := int64(0); a < slots; a++ {
		s.Set(a, value(seed))
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 10))
			for i := 0; i < 3000; i++ {
				a := rng.Int63n(slots)
				mu.Lock()
				if rng.Intn(5) == 0 {
					s.Delete(a)
				} else {
					s.Set(a, value(rng))
				}
				if s.dead < lastDead {
					compactions++
				}
				lastDead = s.dead
				mu.Unlock()
			}
		}(w)
	}
	type held struct{ got, want string }
	rng := rand.New(rand.NewSource(2))
	var hold []held
	for i := 0; i < 4000; i++ {
		mu.RLock()
		v, ok := s.Get(rng.Int63n(slots))
		var want string
		if ok {
			want = strings.Clone(v)
		}
		mu.RUnlock()
		if ok {
			hold = append(hold, held{v, want})
		}
		if i%500 == 499 {
			for _, h := range hold {
				if h.got != h.want {
					t.Fatalf("a held string changed: %d bytes, want %d", len(h.got), len(h.want))
				}
			}
		}
	}
	wg.Wait()
	for _, h := range hold {
		if h.got != h.want {
			t.Fatalf("a held string changed after the writers finished")
		}
	}
	if compactions == 0 {
		t.Fatal("the writers never compacted the arena")
	}
}
