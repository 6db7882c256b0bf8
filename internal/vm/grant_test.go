package vm

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/machine"
)

// A pager that borrows the frames of a ranged request reads the pages
// straight into them: the data arrives, nothing is copied on the
// page-in path, and every frame is back once the mapping goes.
func TestGrantPageInCopiesNothing(t *testing.T) {
	s := newTestSystem(t)
	free0 := s.Stats().FreeCount
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.borrow, fp.ranged = true, true
	for i := uint64(0); i < 4; i++ {
		fp.seed(i*testPageSize, byte(0x10+i))
	}
	obj := s.NewExternalObject(fp, 4*testPageSize)
	addr, err := m.AllocateWithObject(obj, 0, 0, 4*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	copied0 := s.met.PageinBytesCopied.Load()
	got := make([]byte, 4*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if want := bytes.Repeat([]byte{byte(0x10 + i)}, testPageSize); !bytes.Equal(got[i*testPageSize:(i+1)*testPageSize], want) {
			t.Fatalf("page %d holds %x, want %x", i, got[i*testPageSize], want[0])
		}
	}
	if n := s.met.PageinBytesCopied.Load() - copied0; n != 0 {
		t.Fatalf("page-in copied %d bytes through the copy path", n)
	}
	if st := s.Stats(); st.Pageins != 4 || fp.requestCount() != 1 || fp.grants != 1 {
		t.Fatalf("%d page-ins, %d requests, %d grants; want 4, 1, 1", st.Pageins, fp.requestCount(), fp.grants)
	}
	if err := m.Deallocate(addr, 4*testPageSize); err != nil {
		t.Fatal(err)
	}
	if free := s.Stats().FreeCount; free != free0 {
		t.Fatalf("%d frames free after the mapping went, want %d", free, free0)
	}
}

// A grant answered with pager_data_unavailable zero-fills the faulted
// page in one of its own frames and frees the others.
func TestGrantUnavailableZeroFills(t *testing.T) {
	s := newTestSystem(t)
	free0 := s.Stats().FreeCount
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.borrow = true
	obj := s.NewExternalObject(fp, 4*testPageSize)
	addr, _ := m.AllocateWithObject(obj, 0, 0, 4*testPageSize, true, false)
	// Stale bytes in a free frame must not show through the zero-fill.
	s.mu.Lock()
	var stale []machine.Frame
	for f, ok := s.frames.Alloc(); ok; f, ok = s.frames.Alloc() {
		copy(s.frames.Bytes(f), bytes.Repeat([]byte{0xEE}, testPageSize))
		stale = append(stale, f)
	}
	for _, f := range stale {
		s.frames.Free(f)
	}
	s.mu.Unlock()
	got := make([]byte, 2*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 2*testPageSize)) {
		t.Fatal("unavailable pages read as non-zero")
	}
	if fp.grants == 0 {
		t.Fatal("no request carried a grant")
	}
	if free := s.Stats().FreeCount; free != free0-2 {
		t.Fatalf("%d frames free with two pages zero-filled, want %d", free, free0-2)
	}
	_ = m.Deallocate(addr, 4*testPageSize)
	if free := s.Stats().FreeCount; free != free0 {
		t.Fatalf("%d frames free after the mapping went, want %d", free, free0)
	}
}

// A grant is settled once: a second settlement — a late discard, or an
// answer after the discard — does nothing. Only a pager that borrows
// frames is lent any, an object has one grant out at a time, and a grant
// takes neither the reserved pool nor more than a quarter of memory.
func TestGrantSettlesOnceAndLendingIsBounded(t *testing.T) {
	s := newTestSystem(t)
	free0 := s.Stats().FreeCount
	lend := func(obj *Object, n int) *FrameGrant {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.lendLocked(obj, 0, n)
	}
	if g := lend(s.NewExternalObject(newFakePager(s), 4*testPageSize), 4); g != nil {
		t.Fatal("lent frames to a pager that does not borrow them")
	}
	fp := newFakePager(s)
	fp.borrow = true
	obj := s.NewExternalObject(fp, 4*testPageSize)
	g := lend(obj, 4)
	if g == nil || g.Frames() != 4 || s.Stats().FreeCount != free0-4 {
		t.Fatalf("lent %v, %d free; want 4 frames lent", g, s.Stats().FreeCount)
	}
	if n := s.met.FramesLent.Load(); n < 4 {
		t.Fatalf("vm.frames_lent %d with 4 frames lent", n)
	}
	if again := lend(obj, 4); again != nil {
		t.Fatal("lent a second grant to an object with one outstanding")
	}
	g.Discard()
	s.GrantProvided(obj, 0, g, ProtNone)
	if free := s.Stats().FreeCount; free != free0 {
		t.Fatalf("%d frames free after discard, want %d", free, free0)
	}
	if g = lend(obj, 4); g == nil {
		t.Fatal("no grant once the outstanding one was settled")
	}
	g.Discard()

	// A quarter of memory at most is out on loan.
	other := s.NewExternalObject(fp, 32*testPageSize)
	if big := lend(other, testFrames/4+1); big != nil {
		t.Fatalf("lent %d of %d frames", big.Frames(), testFrames)
	}

	// Memory short of the run: no grant, rather than one that dips
	// into the reserve.
	s.mu.Lock()
	var held []machine.Frame
	for s.frames.FreeFrames() > s.reserved+3 {
		f, _ := s.frames.Alloc()
		held = append(held, f)
	}
	short := s.lendLocked(other, 0, 4)
	for _, f := range held {
		s.frames.Free(f)
	}
	s.mu.Unlock()
	if short != nil {
		t.Fatalf("lent %d frames with %d free above the reserve", short.Frames(), 3)
	}
	if free := s.Stats().FreeCount; free != free0 {
		t.Fatalf("%d frames free, want %d", free, free0)
	}
}

// A manager that keeps every grant and never answers holds no more
// frames however often faults on its objects time out and retry: one
// grant per object, none once a fault on it timed out, a quarter of
// memory in all. Memory beyond that still pages, since the daemon frees
// frames for what is out on loan.
func TestHoardingManagerIsBounded(t *testing.T) {
	s := newTestSystem(t)
	s.SetFaultPolicy(FaultPolicy{Timeout: 5 * time.Millisecond})
	free0 := s.Stats().FreeCount
	m := s.NewMap(mapLo, mapHi)
	fp := newFakePager(s)
	fp.borrow, fp.silent = true, true
	const objects, pages = 3, 8
	addrs := make([]uint64, objects)
	for i := range addrs {
		obj := s.NewExternalObject(fp, pages*testPageSize)
		addr, err := m.AllocateWithObject(obj, 0, 0, pages*testPageSize, true, false)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	var after0 int
	for round := uint64(0); round < 4; round++ {
		for _, addr := range addrs {
			buf := make([]byte, (pages-round)*testPageSize)
			if err := m.ReadBytes(addr+round*testPageSize, buf); err != ErrMemoryFailure {
				t.Fatalf("round %d: fault on a silent manager: %v", round, err)
			}
		}
		free := s.Stats().FreeCount
		if round == 0 {
			after0 = free
		}
		if free != after0 || free0-free > testFrames/4 {
			t.Fatalf("round %d: %d frames free, %d after the first round, %d at the start", round, free, after0, free0)
		}
	}
	fp.mu.Lock()
	hoarded := fp.hoarded
	fp.mu.Unlock()
	if len(hoarded) != 2 || fp.grants != 2 {
		t.Fatalf("%d grants kept of %d lent; want 2 (a quarter of %d frames)", len(hoarded), fp.grants, testFrames)
	}

	// More anonymous memory than is free: the daemon pages out around
	// the frames on loan.
	anon, _ := m.Allocate(0, testFrames*testPageSize, true)
	for off := uint64(0); off < testFrames*testPageSize; off += testPageSize {
		if err := m.WriteBytes(anon+off, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.Deallocate(anon, testFrames*testPageSize)
	for _, g := range hoarded {
		g.Discard()
	}
	for _, addr := range addrs {
		_ = m.Deallocate(addr, pages*testPageSize)
	}
	if free := s.Stats().FreeCount; free != free0 {
		t.Fatalf("%d frames free once the manager let go, want %d", free, free0)
	}
}

// The PV table keeps a frame's list when its last mapping goes, with the
// stale reference cleared, so mapping the frame again allocates nothing
// and no dead Pmap stays reachable.
func TestPVListKeepsCapacity(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, testPageSize, true)
	if err := m.WriteBytes(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vpage := addr / testPageSize
	f, ok := m.pmap.translate(vpage, ProtRead)
	if !ok {
		t.Fatal("written page not mapped")
	}
	m.pmap.remove(vpage, vpage)
	refs := s.pv[f]
	if len(refs) != 0 || cap(refs) == 0 || refs[:1][0].pmap != nil {
		t.Fatalf("pv list after unmap: len %d cap %d", len(refs), cap(refs))
	}
	if n := testing.AllocsPerRun(10, func() {
		m.pmap.enter(vpage, f, ProtRead)
		m.pmap.remove(vpage, vpage)
	}); n != 0 {
		t.Fatalf("re-mapping a frame allocated %v times", n)
	}
}
