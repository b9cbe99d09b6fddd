package srvkit

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replaceFile swaps data in at path atomically (temp file + rename), the
// way operators should edit a watched spec. os.WriteFile truncates, then
// writes: a poll landing between the two sees two signatures and fires
// twice.
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

func TestConfigWatcherPollTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	var reloads atomic.Int64
	cw := ConfigWatcher{
		Path: path,
		Poll: 5 * time.Millisecond,
		Reload: func(context.Context) error {
			reloads.Add(1)
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); cw.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// An unchanged file never fires.
	time.Sleep(30 * time.Millisecond)
	if n := reloads.Load(); n != 0 {
		t.Fatalf("unchanged file fired %d reloads", n)
	}

	// A content change (different size) fires exactly once, then settles.
	replaceFile(t, path, []byte("v2-longer"))
	waitFor(t, "reload after edit", func() bool { return reloads.Load() >= 1 })
	time.Sleep(30 * time.Millisecond)
	if n := reloads.Load(); n != 1 {
		t.Fatalf("one edit fired %d reloads", n)
	}
}

func TestConfigWatcherReloadErrorKeepsWatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	var reloads atomic.Int64
	cw := ConfigWatcher{
		Path: path,
		Poll: 5 * time.Millisecond,
		Reload: func(context.Context) error {
			if reloads.Add(1) == 1 {
				return errors.New("parse error")
			}
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); cw.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// Let the watcher take its baseline stat before editing, else the edit
	// lands inside the initial signature and never reads as a change.
	time.Sleep(20 * time.Millisecond)

	// First edit fails to apply; the watcher must survive and fire again
	// on the next edit rather than wedging on the bad config.
	if err := os.WriteFile(path, []byte("bad-edit"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failed reload", func() bool { return reloads.Load() >= 1 })
	if err := os.WriteFile(path, []byte("fixed-edit-x"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retry after fixed edit", func() bool { return reloads.Load() >= 2 })
}

func TestConfigWatcherSIGHUP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	var reloads atomic.Int64
	cw := ConfigWatcher{
		Path:   path,
		Poll:   -1, // polling off: SIGHUP is the only trigger
		Reload: func(context.Context) error { reloads.Add(1); return nil },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); cw.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// Give signal.Notify a beat to install, then signal ourselves. SIGHUP
	// reloads even with an untouched file — the operator said "now".
	time.Sleep(20 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "SIGHUP reload", func() bool { return reloads.Load() >= 1 })
}
