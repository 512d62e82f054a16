//go:build race

package server

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random share of the values put back, so pooled allocation counts do
// not hold.
const raceEnabled = true
