package vm

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

const (
	testPageSize = 256
	testFrames   = 64
	mapLo        = 0x10000
	mapHi        = 0x1000000
)

// fakePager is an in-memory data manager for tests. It answers
// DataRequest synchronously from its backing store (or reports the data
// unavailable), records every call, and applies a configurable initial
// lock value.
type fakePager struct {
	sys *System

	mu          sync.Mutex
	backing     map[uint64][]byte
	requests    []uint64
	lengths     []uint64 // the length of each request, beside requests
	writes      []uint64
	unlocks     []uint64
	inits       int
	terminates  int
	lockValue   Prot
	unavailable bool          // answer DataUnavailable instead of providing
	silent      bool          // never answer (errant manager)
	grantUnlock bool          // answer DataUnlock by clearing the lock
	ranged      bool          // answer the whole range it holds, not just the first page
	borrow      bool          // be lent frames (FrameBorrower), and fill them
	grants      int           // requests that came with a frame grant
	hoarded     []*FrameGrant // grants a silent pager keeps
}

func newFakePager(sys *System) *fakePager {
	return &fakePager{sys: sys, backing: map[uint64][]byte{}}
}

func (f *fakePager) seed(off uint64, b byte) {
	page := make([]byte, testPageSize)
	for i := range page {
		page[i] = b
	}
	f.mu.Lock()
	f.backing[off] = page
	f.mu.Unlock()
}

func (f *fakePager) Init(obj *Object) {
	f.mu.Lock()
	f.inits++
	f.mu.Unlock()
}

func (f *fakePager) DataRequest(obj *Object, offset, length uint64, desired Prot, grant *FrameGrant) {
	f.mu.Lock()
	if grant != nil {
		f.grants++
	}
	f.requests = append(f.requests, offset)
	f.lengths = append(f.lengths, length)
	silent, unavailable := f.silent, f.unavailable
	data, have := f.backing[offset]
	if f.ranged {
		data = nil
		for off := offset; off < offset+length && f.backing[off] != nil; off += testPageSize {
			data = append(data, f.backing[off]...)
		}
	}
	lock := f.lockValue
	if silent && grant != nil {
		// An errant manager keeps what it was lent.
		f.hoarded = append(f.hoarded, grant)
	}
	f.mu.Unlock()
	if silent {
		return
	}
	if grant != nil {
		f.fill(obj, offset, grant, !unavailable && have, lock)
		return
	}
	if unavailable || !have {
		f.sys.DataUnavailable(obj, offset, testPageSize)
		return
	}
	f.sys.DataProvided(obj, offset, data, lock)
}

// fill answers a request through its frame grant: the pages it holds from
// offset on, read straight into the lent frames, or unavailable for the
// first page.
func (f *fakePager) fill(obj *Object, offset uint64, g *FrameGrant, have bool, lock Prot) {
	got := uint64(0)
	f.mu.Lock()
	for i := 0; have && i < g.Frames(); i++ {
		page := f.backing[offset+got]
		if page == nil || (!f.ranged && i > 0) {
			break
		}
		copy(g.Frame(i), page)
		got += testPageSize
	}
	f.mu.Unlock()
	if got == 0 {
		f.sys.GrantUnavailable(obj, offset, testPageSize, g)
		return
	}
	g.Fill(got)
	f.sys.GrantProvided(obj, offset, g, lock)
}

func (f *fakePager) BorrowsFrames() bool { return f.borrow }

func (f *fakePager) DataWrite(obj *Object, offset uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	f.mu.Lock()
	f.writes = append(f.writes, offset)
	f.backing[offset] = cp
	f.mu.Unlock()
}

func (f *fakePager) DataUnlock(obj *Object, offset, length uint64, desired Prot) {
	f.mu.Lock()
	f.unlocks = append(f.unlocks, offset)
	grant := f.grantUnlock
	f.mu.Unlock()
	if grant {
		f.sys.LockRequest(obj, offset, length, ProtNone)
	}
}

func (f *fakePager) Terminate(obj *Object) {
	f.mu.Lock()
	f.terminates++
	f.mu.Unlock()
}

func (f *fakePager) requestCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.requests)
}

func (f *fakePager) writeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes)
}

func newTestSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem(Config{Frames: testFrames, PageSize: testPageSize})
	t.Cleanup(s.Shutdown)
	// Default pager for anonymous memory under pressure.
	dp := newFakePager(s)
	s.SetDefaultPager(func(obj *Object) Pager { return dp })
	return s
}

func TestAllocateZeroFillReadWrite(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, err := m.Allocate(0, 3*testPageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*testPageSize)
	if err := m.ReadBytes(addr, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0 (zero-fill)", i, b)
		}
	}
	msg := []byte("the duality of memory and communication")
	if err := m.WriteBytes(addr+100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.ReadBytes(addr+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	st := s.Stats()
	if st.ZeroFills == 0 || st.Faults == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 4*testPageSize, true)
	data := make([]byte, 2*testPageSize+37)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := uint64(testPageSize - 19)
	if err := m.WriteBytes(addr+off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.ReadBytes(addr+off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("span read mismatch")
	}
}

func TestDeallocateInvalidates(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 2*testPageSize, true)
	if err := m.WriteBytes(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Deallocate(addr, 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadBytes(addr, make([]byte, 1)); err != ErrInvalidAddress {
		t.Fatalf("read after dealloc: %v", err)
	}
}

func TestDeallocatePartialClips(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 4*testPageSize, true)
	if err := m.WriteBytes(addr, bytes.Repeat([]byte{9}, 4*testPageSize)); err != nil {
		t.Fatal(err)
	}
	// Punch a hole in the middle.
	if err := m.Deallocate(addr+testPageSize, testPageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadBytes(addr, make([]byte, testPageSize)); err != nil {
		t.Fatalf("head: %v", err)
	}
	if err := m.ReadBytes(addr+testPageSize, make([]byte, 1)); err != ErrInvalidAddress {
		t.Fatalf("hole: %v", err)
	}
	tail := make([]byte, 2*testPageSize)
	if err := m.ReadBytes(addr+2*testPageSize, tail); err != nil {
		t.Fatalf("tail: %v", err)
	}
	if tail[0] != 9 {
		t.Fatal("tail data lost by clipping")
	}
	regions := m.Regions()
	if len(regions) != 2 {
		t.Fatalf("regions %v", regions)
	}
}

func TestProtect(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, testPageSize, true)
	if err := m.WriteBytes(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(addr, testPageSize, false, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(addr, []byte{2}); err != ErrProtection {
		t.Fatalf("write to read-only: %v", err)
	}
	if err := m.ReadBytes(addr, make([]byte, 1)); err != nil {
		t.Fatalf("read of read-only: %v", err)
	}
	// Restore write (still within max).
	if err := m.Protect(addr, testPageSize, false, ProtDefault); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(addr, []byte{2}); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	// Lower the maximum; raising above it must fail.
	if err := m.Protect(addr, testPageSize, true, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(addr, testPageSize, false, ProtDefault); err != ErrProtection {
		t.Fatalf("raise above max: %v", err)
	}
}

func TestForkCopyOnWriteIsolation(t *testing.T) {
	s := newTestSystem(t)
	parent := s.NewMap(mapLo, mapHi)
	addr, _ := parent.Allocate(0, 2*testPageSize, true)
	orig := bytes.Repeat([]byte{0xAB}, 2*testPageSize)
	if err := parent.WriteBytes(addr, orig); err != nil {
		t.Fatal(err)
	}

	child := parent.Fork()
	// Child sees parent data.
	got := make([]byte, 2*testPageSize)
	if err := child.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("child does not see parent data")
	}
	// Child write is invisible to parent.
	if err := child.WriteBytes(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pb := make([]byte, 3)
	parent.ReadBytes(addr, pb)
	if !bytes.Equal(pb, []byte{0xAB, 0xAB, 0xAB}) {
		t.Fatalf("parent sees child write: %v", pb)
	}
	// Parent write is invisible to child.
	if err := parent.WriteBytes(addr+testPageSize, []byte{7}); err != nil {
		t.Fatal(err)
	}
	cb := make([]byte, 1)
	child.ReadBytes(addr+testPageSize, cb)
	if cb[0] != 0xAB {
		t.Fatalf("child sees parent write: %v", cb)
	}
	if st := s.Stats(); st.CowFaults == 0 {
		t.Fatalf("no COW faults recorded: %+v", st)
	}
}

func TestForkShareVisibleBothWays(t *testing.T) {
	s := newTestSystem(t)
	parent := s.NewMap(mapLo, mapHi)
	addr, _ := parent.Allocate(0, testPageSize, true)
	if err := parent.SetInheritance(addr, testPageSize, InheritShare); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteBytes(addr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	b := make([]byte, 6)
	if err := child.ReadBytes(addr, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "before" {
		t.Fatalf("child sees %q", b)
	}
	if err := child.WriteBytes(addr, []byte("child!")); err != nil {
		t.Fatal(err)
	}
	parent.ReadBytes(addr, b)
	if string(b) != "child!" {
		t.Fatalf("parent sees %q after child write", b)
	}
	if err := parent.WriteBytes(addr, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	child.ReadBytes(addr, b)
	if string(b) != "parent" {
		t.Fatalf("child sees %q after parent write", b)
	}
	// Region info reports sharing.
	var shared bool
	for _, r := range parent.Regions() {
		if r.Start == addr && r.Shared {
			shared = true
		}
	}
	if !shared {
		t.Fatal("region not marked shared")
	}
}

func TestForkInheritNone(t *testing.T) {
	s := newTestSystem(t)
	parent := s.NewMap(mapLo, mapHi)
	addr, _ := parent.Allocate(0, testPageSize, true)
	parent.SetInheritance(addr, testPageSize, InheritNone)
	child := parent.Fork()
	if err := child.ReadBytes(addr, make([]byte, 1)); err != ErrInvalidAddress {
		t.Fatalf("inherit-none child read: %v", err)
	}
}

func TestGrandchildChainedCOW(t *testing.T) {
	s := newTestSystem(t)
	g0 := s.NewMap(mapLo, mapHi)
	addr, _ := g0.Allocate(0, testPageSize, true)
	g0.WriteBytes(addr, []byte{10})
	g1 := g0.Fork()
	g1.WriteBytes(addr, []byte{20})
	g2 := g1.Fork()
	g2.WriteBytes(addr, []byte{30})
	var b [1]byte
	g0.ReadBytes(addr, b[:])
	if b[0] != 10 {
		t.Fatalf("g0 = %d", b[0])
	}
	g1.ReadBytes(addr, b[:])
	if b[0] != 20 {
		t.Fatalf("g1 = %d", b[0])
	}
	g2.ReadBytes(addr, b[:])
	if b[0] != 30 {
		t.Fatalf("g2 = %d", b[0])
	}
}

func TestCopyRegionToIsLazy(t *testing.T) {
	s := newTestSystem(t)
	src := s.NewMap(mapLo, mapHi)
	dst := s.NewMap(mapLo, mapHi)
	const npages = 8
	addr, _ := src.Allocate(0, npages*testPageSize, true)
	data := bytes.Repeat([]byte{0x5A}, npages*testPageSize)
	src.WriteBytes(addr, data)

	before := s.Stats().CowFaults
	dstAddr, err := src.CopyRegionTo(dst, addr, npages*testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CowFaults; got != before {
		t.Fatalf("COW faults during transfer: %d", got-before)
	}
	// Reading the copy needs no page copies either.
	got := make([]byte, npages*testPageSize)
	if err := dst.ReadBytes(dstAddr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy content mismatch")
	}
	if got := s.Stats().CowFaults; got != before {
		t.Fatalf("COW faults during read of copy: %d", got-before)
	}
	// Writing one page copies exactly one page.
	if err := dst.WriteBytes(dstAddr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CowFaults; got != before+1 {
		t.Fatalf("COW faults after one write: %d", got-before)
	}
	// Source unaffected.
	sb := make([]byte, 1)
	src.ReadBytes(addr, sb)
	if sb[0] != 0x5A {
		t.Fatal("source modified by copy write")
	}
	// Writes to source after transfer don't leak into the copy.
	src.WriteBytes(addr+testPageSize, []byte{2})
	db := make([]byte, 1)
	dst.ReadBytes(dstAddr+testPageSize, db)
	if db[0] != 0x5A {
		t.Fatal("source write leaked into copy")
	}
}

// A region shared through a sharing map is snapshotted eagerly, beside a
// private region copied lazily, in one contiguous destination range.
func TestCopyRegionToSnapshotsSharedRegion(t *testing.T) {
	s := newTestSystem(t)
	src := s.NewMap(mapLo, mapHi)
	addr, _ := src.Allocate(0, 2*testPageSize, true)
	if err := src.SetInheritance(addr, testPageSize, InheritShare); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteBytes(addr, bytes.Repeat([]byte{7}, 2*testPageSize)); err != nil {
		t.Fatal(err)
	}
	sharer := src.Fork() // the first page now sits behind a sharing map
	dst := s.NewMap(mapLo, mapHi)
	at, err := src.CopyRegionTo(dst, addr, 2*testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharer.WriteBytes(addr, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteBytes(addr+testPageSize, []byte{9}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*testPageSize)
	if err := dst.ReadBytes(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 2*testPageSize)) {
		t.Fatalf("copy holds %d and %d, want the snapshot (7)", got[0], got[testPageSize])
	}
	if regions := dst.Regions(); len(regions) != 2 || regions[0].Start != at || regions[1].Start != at+testPageSize {
		t.Fatalf("destination regions %+v", regions)
	}
}

// The range CopyRegionTo reserves in the destination is its own until it
// is done: vm_deallocate, vm_protect and vm_inherit over part of it find
// no memory there, and leave the reservation whole, so the copy lands and
// nothing of the reservation is left behind.
func TestCopyRegionToReservationSurvivesRangeOperations(t *testing.T) {
	s := newTestSystem(t)
	src, dst := s.NewMap(mapLo, mapHi), s.NewMap(mapLo, mapHi)
	const size = 4 * testPageSize
	addr, _ := src.Allocate(0, size, true)
	want := bytes.Repeat([]byte{5}, size)
	if err := src.WriteBytes(addr, want); err != nil {
		t.Fatal(err)
	}

	// CopyRegionTo reserves in dst, then needs src.mu: hold it there.
	src.mu.Lock()
	type result struct {
		at  uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		at, err := src.CopyRegionTo(dst, addr, size)
		done <- result{at, err}
	}()
	var hold *Entry
	for deadline := time.Now().Add(5 * time.Second); hold == nil; {
		dst.mu.Lock()
		if len(dst.entries) == 1 && dst.entries[0].reserved() {
			hold = dst.entries[0]
		}
		dst.mu.Unlock()
		if hold == nil {
			if time.Now().After(deadline) {
				src.mu.Unlock()
				t.Fatal("no reservation appeared in the destination")
			}
			time.Sleep(time.Millisecond)
		}
	}
	at := hold.start
	if err := dst.Fault(at, ProtRead); err != ErrInvalidAddress {
		t.Errorf("fault on the reservation: %v, want ErrInvalidAddress", err)
	}
	if err := dst.Deallocate(at+size/2, size); err != nil {
		t.Errorf("deallocate over the second half: %v", err)
	}
	if err := dst.Protect(at, size/2, false, ProtRead); err != nil {
		t.Errorf("protect over the first half: %v", err)
	}
	if err := dst.SetInheritance(at+testPageSize, testPageSize, InheritShare); err != nil {
		t.Errorf("inherit over one page: %v", err)
	}
	if got, err := dst.Allocate(0, testPageSize, true); err != nil || got < at+size {
		t.Errorf("allocate beside the reservation: %#x, %v; the reserved range is %#x-%#x", got, err, at, at+size)
	}
	src.mu.Unlock()

	r := <-done
	if r.err != nil || r.at != at {
		t.Fatalf("copy: %#x, %v; want the reserved range at %#x", r.at, r.err, at)
	}
	got := make([]byte, size)
	if err := dst.ReadBytes(at, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read of the copy: %v", err)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for _, e := range dst.entries {
		if e.reserved() {
			t.Fatalf("reserved entry %#x-%#x left in the map", e.start, e.end)
		}
		if e.start < at+size && e.end > at && (e.prot != ProtDefault || e.inherit != InheritCopy) {
			t.Fatalf("entry %#x-%#x of the copy has prot %v inherit %v", e.start, e.end, e.prot, e.inherit)
		}
	}
}

func TestVMCopyWithinMap(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	a, _ := m.Allocate(0, 2*testPageSize, true)
	b, _ := m.Allocate(0, 2*testPageSize, true)
	m.WriteBytes(a, []byte("copy me"))
	if err := m.Copy(a, 7, b); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	m.ReadBytes(b, got)
	if string(got) != "copy me" {
		t.Fatalf("vm_copy got %q", got)
	}
}

func TestExternalPagerDemandFill(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x11)
	fp.seed(testPageSize, 0x22)
	obj := s.NewExternalObject(fp, 4*testPageSize)
	addr, err := m.AllocateWithObject(obj, 0, 0, 4*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x11 {
		t.Fatalf("page 0 byte %x", b[0])
	}
	if err := m.ReadBytes(addr+testPageSize+5, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x22 {
		t.Fatalf("page 1 byte %x", b[0])
	}
	// Unseeded page: manager answers unavailable -> zero fill.
	if err := m.ReadBytes(addr+3*testPageSize, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("unavailable page byte %x", b[0])
	}
	if fp.requestCount() != 3 {
		t.Fatalf("requests %d, want 3", fp.requestCount())
	}
	// Second read of a cached page: no new request.
	m.ReadBytes(addr, b[:])
	if fp.requestCount() != 3 {
		t.Fatalf("cached read re-requested: %d", fp.requestCount())
	}
	if st := s.Stats(); st.Pageins != 2 {
		t.Fatalf("pageins %d, want 2", st.Pageins)
	}
}

func TestPagerLockAndUnlock(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x33)
	fp.lockValue = ProtWrite // provide read-only
	fp.grantUnlock = true
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)

	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	// Write triggers pager_data_unlock; the manager grants it.
	if err := m.WriteBytes(addr, []byte{0x44}); err != nil {
		t.Fatal(err)
	}
	m.ReadBytes(addr, b[:])
	if b[0] != 0x44 {
		t.Fatalf("write after unlock lost: %x", b[0])
	}
	fp.mu.Lock()
	unlocks := len(fp.unlocks)
	fp.mu.Unlock()
	if unlocks != 1 {
		t.Fatalf("unlock calls %d, want 1", unlocks)
	}
	if st := s.Stats(); st.UnlockWaits != 1 {
		t.Fatalf("UnlockWaits %d", st.UnlockWaits)
	}
}

func TestFlushRequestWritesBackAndInvalidates(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x10)
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	if err := m.WriteBytes(addr, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	s.FlushRequest(obj, 0, testPageSize)
	if fp.writeCount() != 1 {
		t.Fatalf("writes %d, want 1", fp.writeCount())
	}
	// Page invalidated: next read re-requests and sees the new data.
	before := fp.requestCount()
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	if fp.requestCount() != before+1 {
		t.Fatal("flush did not invalidate")
	}
	if b[0] != 0x99 {
		t.Fatalf("modified data lost: %x", b[0])
	}
}

func TestCleanRequestKeepsPage(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x10)
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	m.WriteBytes(addr, []byte{0x77})
	s.CleanRequest(obj, 0, testPageSize)
	if fp.writeCount() != 1 {
		t.Fatalf("writes %d, want 1", fp.writeCount())
	}
	before := fp.requestCount()
	var b [1]byte
	m.ReadBytes(addr, b[:])
	if fp.requestCount() != before {
		t.Fatal("clean invalidated the page")
	}
	if b[0] != 0x77 {
		t.Fatalf("data %x", b[0])
	}
	// A second clean writes nothing (page no longer dirty).
	s.CleanRequest(obj, 0, testPageSize)
	if fp.writeCount() != 1 {
		t.Fatalf("idempotent clean wrote again: %d", fp.writeCount())
	}
}

func TestPageoutUnderPressure(t *testing.T) {
	// 16 frames, write 48 pages of anonymous memory: the pageout daemon
	// must evict through the default pager and data must survive.
	s := NewSystem(Config{Frames: 16, PageSize: testPageSize, FreeTarget: 4})
	defer s.Shutdown()
	dp := newFakePager(s)
	s.SetDefaultPager(func(obj *Object) Pager { return dp })

	m := s.NewMap(mapLo, mapHi)
	const npages = 48
	addr, _ := m.Allocate(0, npages*testPageSize, true)
	page := make([]byte, testPageSize)
	for i := 0; i < npages; i++ {
		for j := range page {
			page[j] = byte(i)
		}
		if err := m.WriteBytes(addr+uint64(i)*testPageSize, page); err != nil {
			t.Fatal(err)
		}
	}
	// Read everything back; evicted pages come from the default pager.
	for i := 0; i < npages; i++ {
		if err := m.ReadBytes(addr+uint64(i)*testPageSize, page); err != nil {
			t.Fatal(err)
		}
		for j := range page {
			if page[j] != byte(i) {
				t.Fatalf("page %d byte %d = %d after pageout", i, j, page[j])
			}
		}
	}
	st := s.Stats()
	if st.Pageouts == 0 {
		t.Fatalf("no pageouts under pressure: %+v", st)
	}
	if st.Pageins == 0 {
		t.Fatalf("no pageins under pressure: %+v", st)
	}
}

func TestFaultTimeoutAborts(t *testing.T) {
	s := newTestSystem(t)
	s.SetFaultPolicy(FaultPolicy{Timeout: 50 * time.Millisecond})
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.silent = true // errant manager: never answers
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	start := time.Now()
	err := m.ReadBytes(addr, make([]byte, 1))
	if err != ErrMemoryFailure {
		t.Fatalf("silent pager fault: %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("aborted before timeout")
	}
}

func TestFaultTimeoutZeroFills(t *testing.T) {
	s := newTestSystem(t)
	s.SetFaultPolicy(FaultPolicy{Timeout: 50 * time.Millisecond, ZeroFillOnTimeout: true})
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.silent = true
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatalf("zero-fill policy fault: %v", err)
	}
	if b[0] != 0 {
		t.Fatalf("byte %x, want 0", b[0])
	}
}

func TestObjectFailedWakesFaulters(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.silent = true
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	done := make(chan error, 1)
	go func() { done <- m.ReadBytes(addr, make([]byte, 1)) }()
	time.Sleep(20 * time.Millisecond)
	s.ObjectFailed(obj, nil)
	select {
	case err := <-done:
		if err != ErrMemoryFailure {
			t.Fatalf("fault error %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("faulting thread not woken by object failure")
	}
	// Subsequent faults fail immediately.
	if err := m.ReadBytes(addr, make([]byte, 1)); err != ErrMemoryFailure {
		t.Fatalf("second fault: %v", err)
	}
}

func TestCanCacheRetainsPages(t *testing.T) {
	s := newTestSystem(t)
	fp := newFakePager(s)
	fp.seed(0, 0x42)
	obj := s.NewExternalObject(fp, testPageSize)
	s.SetCanCache(obj, true)

	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	var b [1]byte
	m.ReadBytes(addr, b[:])
	req := fp.requestCount()
	// Unmap: the object keeps its pages because of pager_cache.
	if err := m.Deallocate(addr, testPageSize); err != nil {
		t.Fatal(err)
	}
	fp.mu.Lock()
	terms := fp.terminates
	fp.mu.Unlock()
	if terms != 0 {
		t.Fatal("object terminated despite pager_cache")
	}
	// Remap and fault: served from cache, no new request.
	addr2, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	m.ReadBytes(addr2, b[:])
	if b[0] != 0x42 {
		t.Fatalf("cache byte %x", b[0])
	}
	if fp.requestCount() != req {
		t.Fatal("cached object re-requested data")
	}
	// Revoke caching with no references: terminate.
	m.Deallocate(addr2, testPageSize)
	s.SetCanCache(obj, false)
	fp.mu.Lock()
	terms = fp.terminates
	fp.mu.Unlock()
	if terms != 1 {
		t.Fatalf("terminates %d, want 1", terms)
	}
}

func TestTerminateWritesDirtyPagesBack(t *testing.T) {
	s := newTestSystem(t)
	fp := newFakePager(s)
	fp.seed(0, 0x01)
	obj := s.NewExternalObject(fp, testPageSize)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	m.WriteBytes(addr, []byte{0xEE})
	m.Deallocate(addr, testPageSize)
	if fp.writeCount() != 1 {
		t.Fatalf("writes at terminate: %d", fp.writeCount())
	}
	fp.mu.Lock()
	got := fp.backing[0][0]
	fp.mu.Unlock()
	if got != 0xEE {
		t.Fatalf("terminated data %x", got)
	}
}

// TestTerminateAfterPagerFailedDropsDirtyPages is the regression test
// for termination racing ObjectFailed. Termination collects a dirty page
// for write-back, then waits on a busy page; the manager fails meanwhile
// and ObjectFailed clears the object's pager. Termination must drop the
// collected page rather than write it to a pager that is gone (it used
// to call DataWrite on the nil pager and panic).
func TestTerminateAfterPagerFailedDropsDirtyPages(t *testing.T) {
	s := newTestSystem(t)
	fp := newFakePager(s)
	fp.seed(0, 0x01)
	fp.seed(testPageSize, 0x02)
	obj := s.NewExternalObject(fp, 2*testPageSize)
	m := s.NewMap(mapLo, mapHi)
	addr, err := m.AllocateWithObject(obj, 0, 0, 2*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// Page 1 is faulted in first, so the dirty page 0 heads the object's
	// page list and is collected before termination reaches page 1.
	var b [1]byte
	if err := m.ReadBytes(addr+testPageSize, b[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(addr, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	busy := s.hash.lookup(obj, testPageSize)
	busy.busy = true
	s.mu.Unlock()

	go func() {
		// Termination holds s.mu from marking the object destroyed
		// until it waits, so seeing the busy page alone on the list
		// means it has collected page 0 and is parked on s.cond.
		for {
			s.mu.Lock()
			parked := obj.destroyed && obj.pages == busy && busy.objNext == nil
			s.mu.Unlock()
			if parked {
				break
			}
			time.Sleep(time.Millisecond)
		}
		s.ObjectFailed(obj, nil)
		s.mu.Lock()
		busy.busy = false
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	if err := m.Deallocate(addr, 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	if n := fp.writeCount(); n != 0 {
		t.Fatalf("%d write-backs to a failed pager", n)
	}
	if st := s.Stats(); st.Pageouts != 0 {
		t.Fatalf("pageouts %d, want 0", st.Pageouts)
	}
}

func TestRegionsAndStatistics(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	a, _ := m.Allocate(0, testPageSize, true)
	b, _ := m.Allocate(0, 2*testPageSize, true)
	regions := m.Regions()
	if len(regions) != 2 {
		t.Fatalf("regions %v", regions)
	}
	if regions[0].Start != a || regions[1].Start != b {
		t.Fatalf("regions out of order: %v", regions)
	}
	if regions[0].Prot != ProtDefault || regions[0].Inherit != InheritCopy {
		t.Fatalf("region attrs %+v", regions[0])
	}
	m.WriteBytes(a, []byte{1})
	st := s.Stats()
	if st.PageSize != testPageSize || st.Faults == 0 || st.Lookups == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.FreeCount+st.ActiveCount+st.InactiveCount > testFrames {
		t.Fatalf("frame accounting wrong: %+v", st)
	}
}

func TestTouchFaultsWithoutData(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 4*testPageSize, true)
	if err := m.Touch(addr, 4*testPageSize, ProtWrite); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ZeroFills != 4 {
		t.Fatalf("zero fills %d, want 4", st.ZeroFills)
	}
	// Touching again is free.
	f := s.Stats().Faults
	m.Touch(addr, 4*testPageSize, ProtWrite)
	if got := s.Stats().Faults; got != f {
		t.Fatalf("re-touch faulted: %d", got-f)
	}
}

func TestAllocateFixedOverlapFails(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 2*testPageSize, true)
	if _, err := m.Allocate(addr+testPageSize, testPageSize, false); err != ErrNoSpace {
		t.Fatalf("overlapping allocate: %v", err)
	}
	if _, err := m.Allocate(addr+7, testPageSize, false); err != ErrBadArgument {
		t.Fatalf("unaligned allocate: %v", err)
	}
}

func TestConcurrentFaultsOnSamePage(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.seed(0, 0x7F)
	obj := s.NewExternalObject(fp, testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, testPageSize, true, false)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b [1]byte
			if err := m.ReadBytes(addr, b[:]); err != nil {
				errs <- err
			} else if b[0] != 0x7F {
				errs <- ErrMemoryFailure
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One page, so exactly one pager request despite 8 racers.
	if fp.requestCount() != 1 {
		t.Fatalf("requests %d, want 1", fp.requestCount())
	}
}

// Property-style test: a random interleaving of parent/child writes after
// fork must match an explicit two-copy reference model.
func TestCOWMatchesReferenceModel(t *testing.T) {
	s := newTestSystem(t)
	parent := s.NewMap(mapLo, mapHi)
	const npages = 8
	addr, _ := parent.Allocate(0, npages*testPageSize, true)
	ref := make([]byte, npages*testPageSize)
	for i := range ref {
		ref[i] = byte(i % 251)
	}
	parent.WriteBytes(addr, ref)
	child := parent.Fork()
	refP := append([]byte(nil), ref...)
	refC := append([]byte(nil), ref...)

	rng := uint32(12345)
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng % uint32(n))
	}
	for i := 0; i < 200; i++ {
		off := uint64(next(npages*testPageSize - 4))
		val := []byte{byte(next(256)), byte(next(256))}
		if next(2) == 0 {
			parent.WriteBytes(addr+off, val)
			copy(refP[off:], val)
		} else {
			child.WriteBytes(addr+off, val)
			copy(refC[off:], val)
		}
	}
	gotP := make([]byte, len(refP))
	gotC := make([]byte, len(refC))
	parent.ReadBytes(addr, gotP)
	child.ReadBytes(addr, gotC)
	if !bytes.Equal(gotP, refP) {
		t.Fatal("parent diverged from reference model")
	}
	if !bytes.Equal(gotC, refC) {
		t.Fatal("child diverged from reference model")
	}
}

// TestWriteBacksCarryEveryPageIntact: flush, clean and termination carry
// each dirty page to the pager in a recycled page buffer; every page's
// bytes must arrive intact, however many pages one call writes back and
// however often the buffers go round.
func TestWriteBacksCarryEveryPageIntact(t *testing.T) {
	const pages = 8
	s := newTestSystem(t)
	fp := newFakePager(s)
	obj := s.NewExternalObject(fp, pages*testPageSize)
	m := s.NewMap(mapLo, mapHi)
	addr, err := m.AllocateWithObject(obj, 0, 0, pages*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(round, page int) []byte {
		b := make([]byte, testPageSize)
		for j := range b {
			b[j] = byte(round*67 + page*31 + j)
		}
		return b
	}
	dirty := func(round int) {
		t.Helper()
		for i := 0; i < pages; i++ {
			if err := m.WriteBytes(addr+uint64(i*testPageSize), stamp(round, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(round int, how string) {
		t.Helper()
		fp.mu.Lock()
		defer fp.mu.Unlock()
		for i := 0; i < pages; i++ {
			if got := fp.backing[uint64(i*testPageSize)]; !bytes.Equal(got, stamp(round, i)) {
				t.Fatalf("%s: page %d arrived as %x, want %x", how, i, got[:4], stamp(round, i)[:4])
			}
		}
	}
	dirty(1)
	if n := s.FlushRequest(obj, 0, pages*testPageSize); n != pages {
		t.Fatalf("flush wrote %d pages, want %d", n, pages)
	}
	check(1, "flush")
	dirty(2)
	if n := s.CleanRequest(obj, 0, pages*testPageSize); n != pages {
		t.Fatalf("clean wrote %d pages, want %d", n, pages)
	}
	check(2, "clean")
	dirty(3)
	m.Deallocate(addr, pages*testPageSize)
	check(3, "termination")
	if n := fp.writeCount(); n != 3*pages {
		t.Fatalf("%d writes, want %d", n, 3*pages)
	}
}
