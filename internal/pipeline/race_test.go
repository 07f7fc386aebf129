//go:build race

package pipeline

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
