//go:build race

package seeder

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
