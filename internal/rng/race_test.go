//go:build race

package rng

// raceEnabled reports a -race build. The race runtime makes sync.Pool
// drop a share of the items put back, on purpose, so a warm draw from
// rng's pooled scratch can allocate there.
const raceEnabled = true
