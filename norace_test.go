//go:build !race

package rightsizing

const raceEnabled = false
