//go:build race

package main

// raceEnabled reports that the race detector is compiled in; timing
// assertions do not apply under its slowdown.
const raceEnabled = true
