package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// setupRuns is how many times an untraced run sets up; setup_s is the
// median. After each setup the preloaded daemons are SIGKILLed and
// restarted restartsPerSetup times; recovery_s is the median of those.
const (
	setupRuns        = 5
	restartsPerSetup = 8
)

// warmup is the closed-loop load run and discarded before measuring.
const warmup = 2 * time.Second

// round is one pass over the capacity, light and heavy phases. A run
// measures --seconds rounds, so each phase samples the whole run and a
// slow stretch of the machine weighs on all three alike.
const round = time.Second

// Shares of a round: the closed loop, then the two open-loop rates.
const (
	capacityShare = 0.4
	lightShare    = 0.3
	heavyShare    = 0.3
)

// userBytesPerCell is what one acknowledged set stores for its user: the
// two coordinates (8 bytes each) and the value.
const userBytesPerCell = 16 + valueLen

// controlClient carries probes and scrapes, apart from the load
// generator's two connections.
var controlClient = &http.Client{Timeout: 5 * time.Second}

// setup spawns w's daemons under dir, waits until every one is ready and
// preloads the table. It returns the running deployment, a load generator
// on it and the acknowledged preload cells.
func (b *bench) setup(ctx context.Context, dir string, traced bool) (*deployment, *loadgen, int64, error) {
	dp, err := newDeployment(b.w, b.bins, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := dp.start(ctx, controlClient); err != nil {
		dp.stop()
		return nil, nil, 0, err
	}
	lg := newLoadgen(b.g, dp.front.base(), traced)
	st, _ := lg.run(ctx, schedule{p: phasePreload, count: b.g.preloadBatches()})
	if st.failed > 0 || len(st.checks) > 0 || st.setAcked != b.w.cells() {
		dp.stop()
		return nil, nil, 0, fmt.Errorf("preload: %d of %d cells acknowledged (first error: %s)",
			st.setAcked, b.w.cells(), st.firstErr)
	}
	return dp, lg, st.setAcked, nil
}

// untraced sets up setupRuns times, each time also SIGKILLing and
// restarting the preloaded daemons, then runs warm-up, the measured
// rounds and the durability phase, and reports the end-to-end metrics.
//
// Every timed span of work (a setup, a restart, one phase of a round) is
// scaled by the machine's speed measured around it by the reference loop,
// so the timed metrics read what they would at the calibration box's
// median speed. The unscaled values are reported as information.
func (b *bench) untraced(ctx context.Context) (*outcome, error) {
	ref, err := startRefLoop()
	if err != nil {
		return nil, fmt.Errorf("reference loop: %w", err)
	}
	defer ref.close()
	var speeds []float64 // every span's speed, for the report
	span := func() (float64, error) {
		f, err := ref.span()
		speeds = append(speeds, f)
		if err != nil {
			return 0, fmt.Errorf("reference loop: %w", err)
		}
		return f, nil
	}

	out := &outcome{}
	var (
		dp       *deployment
		lg       *loadgen
		acked    int64 // set cells acknowledged, for disk per user byte
		setupDir string
		// Per setup and per restart: scaled and raw seconds, and the
		// daemons' summed peak RSS once the preload is acknowledged.
		setupS, setupRaw, recoveryS, recoveryRaw, rssMB []float64
	)
	if err := ref.mark(); err != nil {
		return nil, fmt.Errorf("reference loop: %w", err)
	}
	for i := range setupRuns {
		if dp != nil {
			dp.stop()
			lg.tr.CloseIdleConnections()
			if err := os.RemoveAll(setupDir); err != nil {
				return nil, err
			}
		}
		setupDir = filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		dp, lg, acked, err = b.setup(ctx, setupDir, false)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		f, err := span()
		if err != nil {
			dp.stop()
			return nil, err
		}
		setupS, setupRaw = append(setupS, took*f), append(setupRaw, took)
		// Read after a fixed amount of work, the preload, the peak RSS does
		// not depend on how the collector's cycles fell during the rounds.
		rss, err := sumHWM(dp.all)
		if err != nil {
			dp.stop()
			return nil, err
		}
		rssMB = append(rssMB, float64(rss)/(1<<20))
		// Recovery replays a WAL of the same size on every run: the
		// preloaded table.
		for range restartsPerSetup {
			t, err := dp.restartData(ctx, controlClient)
			if err == nil {
				f, err = span()
			}
			if err != nil {
				dp.stop()
				return nil, fmt.Errorf("recovery: %w", err)
			}
			recoveryS, recoveryRaw = append(recoveryS, t.Seconds()*f), append(recoveryRaw, t.Seconds())
		}
		lg.tr.CloseIdleConnections()
	}
	defer dp.stop()
	defer lg.tr.CloseIdleConnections()

	warm, _ := lg.run(ctx, schedule{p: phaseWarmup, d: warmup})
	out.addChecks(warm)
	acked += warm.setAcked

	capa, light, heavy := &phaseStats{}, &phaseStats{}, &phaseStats{}
	var (
		capaSecs, capaScaled float64 // raw and speed-scaled capacity seconds
		lightLat, heavyLat   []int64 // speed-scaled latencies
		kc, kl, kh           int64
	)
	if err := ref.mark(); err != nil {
		return nil, fmt.Errorf("reference loop: %w", err)
	}
	rounds := int(b.measure / round)
	for r := range rounds {
		// The order rotates, so no phase always follows the same one.
		for j := range 3 {
			var st *phaseStats
			switch (r + j) % 3 {
			case 0:
				st, kc = lg.run(ctx, schedule{p: phaseCapacity, k0: kc, d: time.Duration(capacityShare * float64(round))})
				capa.merge(st)
			case 1:
				st, kl = lg.run(ctx, openLoop(phaseLight, kl, b.w.light, lightShare))
				light.merge(st)
			case 2:
				st, kh = lg.run(ctx, openLoop(phaseHeavy, kh, b.w.heavy, heavyShare))
				heavy.merge(st)
			}
			f, err := span()
			if err != nil {
				return nil, err
			}
			switch (r + j) % 3 {
			case 0:
				capaSecs += st.elapsed.Seconds()
				capaScaled += st.elapsed.Seconds() * f
			case 1:
				lightLat = appendScaled(lightLat, st.lat, f)
			case 2:
				heavyLat = appendScaled(heavyLat, st.lat, f)
			}
		}
	}
	for _, st := range []*phaseStats{capa, light, heavy} {
		out.addChecks(st)
		out.attempted += st.attempted
		out.failed += st.failed
		acked += st.setAcked
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(capa.lat) == 0 || len(light.lat) == 0 || len(heavy.lat) == 0 {
		return nil, fmt.Errorf("a measured phase completed no batch (first error: %s)", capa.firstErr+light.firstErr+heavy.firstErr)
	}

	dur, err := b.durability(ctx, dp, lg, out)
	if err != nil {
		return nil, err
	}
	acked += dur.sentinels

	capaCells := float64(capa.attempted - capa.failed)
	lightLat, heavyLat = sortedCopy(lightLat), sortedCopy(heavyLat)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	out.metrics = withUnits(map[string]float64{
		"throughput_ops_s":         capaCells / capaScaled,
		"p50_light_ms":             ms(percentile(lightLat, 0.50)),
		"p90_light_ms":             ms(percentile(lightLat, 0.90)),
		"p50_heavy_ms":             ms(percentile(heavyLat, 0.50)),
		"setup_s":                  median(setupS),
		"recovery_s":               median(recoveryS),
		"peak_rss_mb":              median(rssMB),
		"disk_bytes_per_user_byte": float64(dur.disk) / float64(acked*userBytesPerCell),
	}, endToEndUnits)

	errFrac := 0.0
	if out.attempted > 0 {
		errFrac = float64(out.failed) / float64(out.attempted)
	}
	rawLight, rawHeavy := sortedCopy(light.lat), sortedCopy(heavy.lat)
	lightLate, heavyLate := sortedCopy(light.late), sortedCopy(heavy.late)
	for name, m := range map[string]metric{
		"error_frac":            {errFrac, "fraction"},
		"capacity_batches":      {float64(len(capa.lat)), "count"},
		"light_batches":         {float64(len(light.lat)), "count"},
		"heavy_batches":         {float64(len(heavy.lat)), "count"},
		"light_rate":            {b.w.light, "batches/s"},
		"heavy_rate":            {b.w.heavy, "batches/s"},
		"speed_median":          {median(speeds), "ratio"},
		"speed_min":             {minOf(speeds), "ratio"},
		"speed_max":             {maxOf(speeds), "ratio"},
		"raw_throughput_ops_s":  {capaCells / capaSecs, "cells/s"},
		"raw_p50_light_ms":      {ms(percentile(rawLight, 0.50)), "ms"},
		"raw_p90_light_ms":      {ms(percentile(rawLight, 0.90)), "ms"},
		"raw_p50_heavy_ms":      {ms(percentile(rawHeavy, 0.50)), "ms"},
		"raw_setup_s":           {median(setupRaw), "s"},
		"raw_recovery_s":        {median(recoveryRaw), "s"},
		"p99_light_ms":          {ms(percentile(lightLat, 0.99)), "ms"},
		"p90_heavy_ms":          {ms(percentile(heavyLat, 0.90)), "ms"},
		"p99_heavy_ms":          {ms(percentile(heavyLat, 0.99)), "ms"},
		"light_lateness_p99_ms": {ms(percentile(lightLate, 0.99)), "ms"},
		"light_lateness_max_ms": {ms(lightLate[len(lightLate)-1]), "ms"},
		"heavy_lateness_p99_ms": {ms(percentile(heavyLate, 0.99)), "ms"},
		"heavy_lateness_max_ms": {ms(heavyLate[len(heavyLate)-1]), "ms"},
		"final_peak_rss_mb":     {float64(dur.rss) / (1 << 20), "MiB"},
		"final_recovery_s":      {dur.recoveryS, "s"},
		"disk_bytes":            {float64(dur.disk), "bytes"},
		"user_bytes":            {float64(acked * userBytesPerCell), "bytes"},
	} {
		b.info[name] = m
	}
	if e := capa.firstErr + light.firstErr + heavy.firstErr; e != "" {
		fmt.Fprintln(os.Stderr, "bench: first error:", e)
	}
	return out, nil
}

// appendScaled appends lat, each scaled by f, to dst. A failed request
// keeps failedLatency.
func appendScaled(dst, lat []int64, f float64) []int64 {
	for _, l := range lat {
		if l != failedLatency {
			l = int64(float64(l) * f)
		}
		dst = append(dst, l)
	}
	return dst
}

// openLoop schedules one round's share of an open-loop phase.
func openLoop(p phase, k0 int64, rate, share float64) schedule {
	return schedule{p: p, k0: k0, rate: rate, count: int64(math.Round(rate * share * round.Seconds()))}
}

// durabilityStats is what the durability phase measured.
type durabilityStats struct {
	sentinels int64   // sentinel cells acknowledged
	rss       int64   // bytes, summed VmHWM over every daemon
	disk      int64   // bytes of WAL and .state over every data daemon
	recoveryS float64 // the restart after the run, replaying its whole WAL
}

// durability writes the sentinels, reads RSS and disk, SIGKILLs and
// restarts the data daemons (replaying the run's whole WAL), and reads
// every sentinel back.
func (b *bench) durability(ctx context.Context, dp *deployment, lg *loadgen, out *outcome) (*durabilityStats, error) {
	st, _ := lg.run(ctx, schedule{p: phaseSentinel, count: sentinelCells / batchCells})
	out.addChecks(st)
	if st.setAcked != sentinelCells {
		return nil, fmt.Errorf("sentinels: %d of %d cells acknowledged (first error: %s)", st.setAcked, sentinelCells, st.firstErr)
	}
	rss, err := sumHWM(dp.all)
	if err != nil {
		return nil, err
	}
	ds := &durabilityStats{sentinels: st.setAcked, rss: rss}
	for _, d := range dp.all {
		if d.data() {
			n, err := diskBytes(d)
			if err != nil {
				return nil, err
			}
			ds.disk += n
		}
	}
	took, err := dp.restartData(ctx, controlClient)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	ds.recoveryS = took.Seconds()
	lg.tr.CloseIdleConnections()
	if dp.router != nil {
		if err := waitReady(ctx, controlClient, []*daemon{dp.router}); err != nil {
			return nil, err
		}
	}
	rb := &phaseStats{}
	if err := lg.readSentinels(ctx, rb); err != nil {
		return nil, err
	}
	out.addChecks(rb)
	return ds, nil
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}
