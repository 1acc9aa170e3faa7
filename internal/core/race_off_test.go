//go:build !race

package core

// raceEnabled reports whether the race detector is active; the allocation
// guards skip under it (sync.Pool intentionally drops items when racing,
// so AllocsPerRun is not meaningful there).
const raceEnabled = false
