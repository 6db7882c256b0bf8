//go:build race

package pager

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// the zero-allocation tests cannot hold under it.
const raceEnabled = true
