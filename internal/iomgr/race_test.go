//go:build race

package iomgr

// raceEnabled: the race detector instruments the code under test, so the
// zero-allocation test cannot hold under it.
const raceEnabled = true
