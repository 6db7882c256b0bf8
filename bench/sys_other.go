//go:build !linux

package main

import "time"

// Only Linux reports these; elsewhere cpu_us_per_op reads 0.
func cpuTime() time.Duration         { return 0 }
func kernelRelease() string          { return "unknown" }
func filesystemOf(dir string) string { return "unknown" }
