//go:build race

package clay

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so allocation budgets do not hold under it.
const raceEnabled = true
