package iomgr

import "testing"

// TestSyncOpsAllocateNothing: a synchronous read, write or fsync on an
// open file allocates nothing — the op lives on the caller's stack and
// is performed on the caller's goroutine. The default pager's page-ins
// and write-backs and every log force take this path.
func TestSyncOpsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := openTemp(t, Options{})
	buf := make([]byte, 4096)
	if _, err := f.SyncWriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"SyncReadAt", func() error { _, err := f.SyncReadAt(buf, 0); return err }},
		{"SyncReadAt past EOF", func() error { _, err := f.SyncReadAt(buf, 1<<20); return err }},
		{"SyncWriteAt", func() error { _, err := f.SyncWriteAt(buf, 4096); return err }},
		{"SyncFsync", f.SyncFsync},
	} {
		var err error
		if n := testing.AllocsPerRun(200, func() {
			if e := c.op(); e != nil {
				err = e
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per op, want 0", c.name, n)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
