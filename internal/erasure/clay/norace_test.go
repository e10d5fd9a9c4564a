//go:build !race

package clay

const raceEnabled = false
