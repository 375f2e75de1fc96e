//go:build race

package monitor

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts on purpose, so pooled-allocation bounds do not hold.
const raceEnabled = true
