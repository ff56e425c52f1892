//go:build race

package engine

// raceEnabled reports a -race build, under which allocation counts stop
// being deterministic.
const raceEnabled = true
