package vm

import (
	"testing"
	"time"
)

// A fault waiting for pager_data_unlock holds its page across the wait.
// The manager may flush the page instead of unlocking it, and another
// fault may then cache the same offset, locked again, in the very
// structure the flush recycled. The waiting fault must see a new page,
// not its own still locked, and ask again; waiting on the stranger's lock
// would hang it.
func TestUnlockWaitSeesRecycledPage(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x21)
	fp.lockValue = ProtWrite // provide read-only
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	unlocks := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			fp.mu.Lock()
			n := len(fp.unlocks)
			fp.mu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d pager_data_unlock calls, want %d", n, want)
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- m.WriteBytes(addr, []byte{0x22}) }()
	unlocks(1)

	// In one hold of the lock, as a flush and a new fault would leave it:
	// the page is freed, and offset 0 cached again, write-locked, in the
	// recycled structure.
	s.mu.Lock()
	p := s.hash.lookup(obj, 0)
	s.freePageLocked(p)
	np := s.pageInsert(obj, 0)
	s.assignFrameLocked(np, s.allocFrameLocked(false))
	s.installLocked(np, ProtWrite)
	s.mu.Unlock()
	if np != p {
		t.Fatal("the freed page structure was not recycled")
	}

	unlocks(2)
	s.LockRequest(obj, 0, testPageSize, ProtNone)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write never completed")
	}
}
