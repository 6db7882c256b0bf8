//go:build !race

package iomgr

const raceEnabled = false
