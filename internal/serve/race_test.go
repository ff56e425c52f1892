//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and allocation counts stop being deterministic.
const raceEnabled = true
