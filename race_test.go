//go:build race

package rightsizing

// raceEnabled reports a -race build, under which allocation counts stop
// being deterministic.
const raceEnabled = true
