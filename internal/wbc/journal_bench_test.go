package wbc

import (
	"fmt"
	"path/filepath"
	"testing"

	"pairfn/internal/apf"
)

// E25 benchmarks: what durability costs. The journal's price is paid per
// acknowledged mutation (one framed append + an fsync, shared by
// concurrent mutations), and at boot (replay wall-clock grows linearly with the journal
// tail). Run with -benchtime to taste:
//
//	go test ./internal/wbc -bench 'JournaledSubmit|JournalRecovery' -benchtime 2s

func benchCoordinator(b *testing.B, journaled bool) (*Coordinator, VolunteerID) {
	b.Helper()
	c, err := NewCoordinator(Config{APF: apf.NewTHash(), Workload: Null{}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if journaled {
		j, _, err := OpenJournal(filepath.Join(b.TempDir(), "journal"), c, JournalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { j.Close() })
	}
	return c, c.MustRegister(1)
}

// BenchmarkJournaledSubmit measures one next+submit round trip with no
// journal and with an fsync per mutation.
func BenchmarkJournaledSubmit(b *testing.B) {
	cases := []struct {
		name      string
		journaled bool
	}{
		{"off", false},
		{"fsync", true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c, id := benchCoordinator(b, tc.journaled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, err := c.NextTask(id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Submit(id, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournaledSubmitParallel shows what shared fsyncs buy under
// load: concurrent volunteers' mutations ride one fsync, so per-op cost
// falls as parallelism rises.
func BenchmarkJournaledSubmitParallel(b *testing.B) {
	b.Run("fsync", func(b *testing.B) {
		c, _ := benchCoordinator(b, true)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id, err := c.Register(1)
			if err != nil {
				b.Fatal(err)
			}
			for pb.Next() {
				k, err := c.NextTask(id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Submit(id, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkJournalRecovery measures boot-time replay wall-clock against
// journal length: build a journal of n mutations once, then repeatedly
// recover a fresh coordinator from it.
func BenchmarkJournalRecovery(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			cfg := Config{APF: apf.NewTHash(), Workload: Null{}, Seed: 1}
			dir := b.TempDir()
			path := filepath.Join(dir, "journal")
			{
				c, err := NewCoordinator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				j, _, err := OpenJournal(path, c, JournalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				id := c.MustRegister(1)
				for i := 0; i < (n-1)/2; i++ {
					k, err := c.NextTask(id)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Submit(id, k, 0); err != nil {
						b.Fatal(err)
					}
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCoordinator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				j, _, err := OpenJournal(path, c, JournalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
