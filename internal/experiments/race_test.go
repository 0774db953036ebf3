//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
