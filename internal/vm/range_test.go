package vm

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// Tests of the extent-carrying fault: ranged pager_data_request and
// map-ahead. Every assertion is a count, so none depends on timing.

// mapSeeded maps a fresh external object of `pages` pages whose page i is
// filled with byte i+1, behind a fakePager in the given mode.
func mapSeeded(t *testing.T, s *System, pages int, ranged bool) (*Map, *fakePager, *Object, uint64) {
	t.Helper()
	fp := newFakePager(s)
	fp.ranged = ranged
	for i := 0; i < pages; i++ {
		fp.seed(uint64(i)*testPageSize, byte(i+1))
	}
	m := s.NewMap(mapLo, mapHi)
	obj := s.NewExternalObject(fp, uint64(pages)*testPageSize)
	addr, err := m.AllocateWithObject(obj, 0, 0, uint64(pages)*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return m, fp, obj, addr
}

// checkSeeded verifies that data is pages first.. of a mapSeeded object.
func checkSeeded(t *testing.T, data []byte, first int) {
	t.Helper()
	for i := 0; i < len(data); i += testPageSize {
		want := bytes.Repeat([]byte{byte(first + i/testPageSize + 1)}, testPageSize)
		if !bytes.Equal(data[i:i+testPageSize], want) {
			t.Fatalf("page %d holds %x, want %x", first+i/testPageSize, data[i], want[0])
		}
	}
}

func (f *fakePager) calls() (offsets, lengths []uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.requests...), append([]uint64(nil), f.lengths...)
}

func pagesOf(v ...uint64) []uint64 {
	for i := range v {
		v[i] *= testPageSize
	}
	return v
}

func TestRangedRequestCoversTheAccess(t *testing.T) {
	s := newTestSystem(t)
	m, fp, _, addr := mapSeeded(t, s, 40, true)

	// Three pages touched, from the middle of a page: one request for
	// exactly those three, one fault to ask and one to map them all.
	buf := make([]byte, 2*testPageSize)
	if err := m.ReadBytes(addr+testPageSize-5, buf); err != nil {
		t.Fatal(err)
	}
	offs, lens := fp.calls()
	if !reflect.DeepEqual(offs, pagesOf(0)) || !reflect.DeepEqual(lens, pagesOf(3)) {
		t.Fatalf("requests %v lengths %v, want one request of 3 pages at 0", offs, lens)
	}
	if st := s.Stats(); st.Faults != 2 || st.Pageins != 3 {
		t.Fatalf("faults %d pageins %d, want 2 and 3", st.Faults, st.Pageins)
	}

	// A long access is cut into clusters (16 pages: a quarter of the 64
	// frames) and never reaches past the object.
	whole := make([]byte, 37*testPageSize)
	if err := m.ReadBytes(addr+3*testPageSize, whole); err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, whole, 3)
	offs, lens = fp.calls()
	if !reflect.DeepEqual(offs, pagesOf(0, 3, 19, 35)) || !reflect.DeepEqual(lens, pagesOf(3, 16, 16, 5)) {
		t.Fatalf("requests %v lengths %v", offs, lens)
	}
	if st := s.Stats(); st.Pageins != 40 {
		t.Fatalf("pageins %d, want each page once (40)", st.Pageins)
	}
}

func TestRangedRequestStopsAtTheEntry(t *testing.T) {
	s := newTestSystem(t)
	fp := newFakePager(s)
	fp.ranged = true
	for i := 0; i < 8; i++ {
		fp.seed(uint64(i)*testPageSize, byte(i+1))
	}
	m := s.NewMap(mapLo, mapHi)
	obj := s.NewExternalObject(fp, 8*testPageSize)
	// Pages 2..4 of the object are mapped; the object goes on to 8.
	addr, err := m.AllocateWithObject(obj, 2*testPageSize, 0, 3*testPageSize, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Touch(addr, 3*testPageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	offs, lens := fp.calls()
	if !reflect.DeepEqual(offs, pagesOf(2)) || !reflect.DeepEqual(lens, pagesOf(3)) {
		t.Fatalf("requests %v lengths %v, want 3 pages at 2", offs, lens)
	}
	// An access that runs off the entry fails there, having requested
	// nothing beyond it.
	if err := m.ReadBytes(addr, make([]byte, 4*testPageSize)); err != ErrInvalidAddress {
		t.Fatalf("read past the entry: %v", err)
	}
	if st := s.Stats(); st.Pageins != 3 {
		t.Fatalf("pageins %d, want 3", st.Pageins)
	}
}

func TestSmallKernelClustersAQuarterOfItsFrames(t *testing.T) {
	s := NewSystem(Config{Frames: 8, PageSize: testPageSize, FreeTarget: 2, Reserved: 1})
	t.Cleanup(s.Shutdown)
	m, fp, _, addr := mapSeeded(t, s, 6, true)
	got := make([]byte, 6*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, got, 0)
	_, lens := fp.calls()
	for _, l := range lens {
		if l > 2*testPageSize {
			t.Fatalf("request of %d pages on an 8-frame kernel, want <= 2", l/testPageSize)
		}
	}
}

func TestHalfResidentObjectRequestsOnlyAbsentRuns(t *testing.T) {
	s := newTestSystem(t)
	m, fp, _, addr := mapSeeded(t, s, 8, true)
	var b [1]byte
	for _, page := range []uint64{2, 5} {
		if err := m.ReadBytes(addr+page*testPageSize, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 8*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, got, 0)
	offs, lens := fp.calls()
	if !reflect.DeepEqual(offs, pagesOf(2, 5, 0, 3, 6)) || !reflect.DeepEqual(lens, pagesOf(1, 1, 2, 2, 2)) {
		t.Fatalf("requests %v lengths %v: a resident page was asked for again", offs, lens)
	}
	if st := s.Stats(); st.Pageins != 8 {
		t.Fatalf("pageins %d, want each page once (8)", st.Pageins)
	}
}

// A manager that ignores the length and provides one page per request —
// every handler written before requests were ranged — stays correct.
func TestFirstPageOnlyManagerStillCompletes(t *testing.T) {
	s := newTestSystem(t)
	m, fp, _, addr := mapSeeded(t, s, 8, false)
	got := make([]byte, 8*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, got, 0)
	if n := fp.requestCount(); n != 8 {
		t.Fatalf("requests %d, want one per page (8)", n)
	}
}

// A one-page access asks for one page: no read-ahead, whatever lies
// beyond it in the object.
func TestSinglePageAccessRequestsOnePage(t *testing.T) {
	s := newTestSystem(t)
	m, fp, _, addr := mapSeeded(t, s, 8, true)
	page := make([]byte, testPageSize)
	for _, i := range []uint64{4, 0, 7} {
		if err := m.ReadBytes(addr+i*testPageSize, page); err != nil {
			t.Fatal(err)
		}
		if err := m.Fault(addr+i*testPageSize, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteBytes(addr+2*testPageSize+7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, lens := fp.calls()
	if !reflect.DeepEqual(lens, pagesOf(1, 1, 1, 1)) {
		t.Fatalf("request lengths %v, want four single pages", lens)
	}
	if st := s.Stats(); st.Pageins != 4 {
		t.Fatalf("pageins %d, want 4", st.Pageins)
	}
}

// A read maps the resident pages ahead of it; a write into such a page of
// a copy-on-write region still faults, and still copies that page alone.
func TestWriteAfterMapAheadCopiesOnePage(t *testing.T) {
	s := newTestSystem(t)
	src := s.NewMap(mapLo, mapHi)
	const pages = 8
	addr, err := src.Allocate(0, pages*testPageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, pages*testPageSize)
	for i := range orig {
		orig[i] = byte(i/testPageSize + 1)
	}
	if err := src.WriteBytes(addr, orig); err != nil {
		t.Fatal(err)
	}
	dst := s.NewMap(mapLo, mapHi)
	copyAddr, err := src.CopyRegionTo(dst, addr, pages*testPageSize)
	if err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	got := make([]byte, pages*testPageSize)
	if err := dst.ReadBytes(copyAddr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("copy differs from the source")
	}
	if st := s.Stats(); st.Faults-before.Faults != 1 {
		t.Fatalf("reading %d resident pages took %d faults, want 1", pages, st.Faults-before.Faults)
	}

	before = s.Stats()
	if err := dst.WriteBytes(copyAddr+3*testPageSize+9, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CowFaults-before.CowFaults != 1 || st.Faults-before.Faults != 1 {
		t.Fatalf("write took %d faults and %d copies, want 1 and 1", st.Faults-before.Faults, st.CowFaults-before.CowFaults)
	}
	if err := src.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("the write reached the source")
	}
	want := append([]byte(nil), orig...)
	want[3*testPageSize+9] = 0xEE
	if err := dst.ReadBytes(copyAddr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the copy lost the write, or more than the write changed")
	}
	// The source writes its own page 5 after the copy read it through a
	// mapped-ahead translation: the copy keeps the old contents.
	if err := src.WriteBytes(addr+5*testPageSize, []byte{0xDD}); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadBytes(copyAddr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a write by the source showed through the copy")
	}
}

// Map-ahead stops at a page its manager has read-locked, and the access
// then takes the unlock round for that page as it always did.
func TestMapAheadStopsAtALockedPage(t *testing.T) {
	s := newTestSystem(t)
	m, fp, obj, addr := mapSeeded(t, s, 4, true)
	fp.grantUnlock = true
	got := make([]byte, 4*testPageSize)
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	s.LockRequest(obj, 2*testPageSize, testPageSize, ProtRead)
	before := s.Stats()
	if err := m.ReadBytes(addr, got); err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, got, 0)
	fp.mu.Lock()
	unlocks := append([]uint64(nil), fp.unlocks...)
	fp.mu.Unlock()
	if !reflect.DeepEqual(unlocks, pagesOf(2)) {
		t.Fatalf("unlock requests %v, want one for page 2", unlocks)
	}
	if st := s.Stats(); st.UnlockWaits-before.UnlockWaits != 1 {
		t.Fatalf("unlock waits %d, want 1", st.UnlockWaits-before.UnlockWaits)
	}
}

// Regression: a page provided without having been asked for had neither
// a frame nor a busy mark while DataProvided waited for a free frame, and
// a concurrent fault mapped frame -1. On a kernel with few frames every
// provide waits.
func TestUnsolicitedProvideRacingReaders(t *testing.T) {
	s := NewSystem(Config{Frames: 6, PageSize: testPageSize, FreeTarget: 2, Reserved: 1})
	t.Cleanup(s.Shutdown)
	const pages = 32
	m, _, obj, addr := mapSeeded(t, s, pages, false)
	run := make([]byte, 4*testPageSize)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			for off := uint64(0); off < pages*testPageSize; off += uint64(len(run)) {
				select {
				case <-stop:
					return
				default:
				}
				for i := range run {
					run[i] = byte((off+uint64(i))/testPageSize + 1)
				}
				s.DataProvided(obj, off, run, ProtNone)
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var b [1]byte
			for i := 0; i < 2000; i++ {
				page := uint64((i*7 + r*3) % pages)
				if err := m.ReadBytes(addr+page*testPageSize+uint64(i%testPageSize), b[:]); err != nil {
					t.Errorf("read of page %d: %v", page, err)
					return
				}
				if b[0] != byte(page+1) {
					t.Errorf("page %d holds %x", page, b[0])
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	<-stopped
}
