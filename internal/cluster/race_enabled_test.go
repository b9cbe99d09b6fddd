//go:build race

package cluster

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool randomly drops puts (to widen interleavings), so pooled paths
// legitimately allocate and AllocsPerRun guardrails are meaningless.
const raceEnabled = true
