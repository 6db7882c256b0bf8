package vm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestMapMatchesReferenceModel drives a Map with a long random sequence
// of allocate / deallocate / protect / write / read / fork operations and
// cross-checks every result against a trivially correct flat model.
func TestMapMatchesReferenceModel(t *testing.T) {
	const (
		npages = 48
		ops    = 3000
	)
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapLo+npages*testPageSize)

	// Model state, one entry per page.
	type pageModel struct {
		valid    bool
		writable bool
	}
	model := make([]pageModel, npages)
	content := make([]byte, npages*testPageSize)

	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 17) % uint64(n))
	}
	pageAddr := func(p int) uint64 { return mapLo + uint64(p)*testPageSize }
	rangeValid := func(p, n int) bool {
		for i := p; i < p+n; i++ {
			if !model[i].valid {
				return false
			}
		}
		return true
	}
	rangeWritable := func(p, n int) bool {
		for i := p; i < p+n; i++ {
			if !model[i].valid || !model[i].writable {
				return false
			}
		}
		return true
	}
	rangeFreeModel := func(p, n int) bool {
		for i := p; i < p+n; i++ {
			if model[i].valid {
				return false
			}
		}
		return true
	}

	for op := 0; op < ops; op++ {
		p := next(npages)
		n := 1 + next(4)
		if p+n > npages {
			n = npages - p
		}
		switch next(6) {
		case 0: // allocate fixed
			err := func() error {
				_, e := m.Allocate(pageAddr(p), uint64(n)*testPageSize, false)
				return e
			}()
			if rangeFreeModel(p, n) {
				if err != nil {
					t.Fatalf("op %d: allocate [%d,%d) failed: %v", op, p, p+n, err)
				}
				for i := p; i < p+n; i++ {
					model[i] = pageModel{valid: true, writable: true}
					copy(content[i*testPageSize:(i+1)*testPageSize], make([]byte, testPageSize))
				}
			} else if err == nil {
				t.Fatalf("op %d: allocate over valid range succeeded", op)
			}
		case 1: // deallocate
			err := m.Deallocate(pageAddr(p), uint64(n)*testPageSize)
			// Deallocate of partially-valid ranges is allowed (it
			// removes what is there).
			if err != nil && err != ErrInvalidAddress {
				t.Fatalf("op %d: deallocate: %v", op, err)
			}
			if err == nil {
				for i := p; i < p+n; i++ {
					model[i].valid = false
				}
			}
		case 2: // protect read-only or restore rw
			ro := next(2) == 0
			prot := ProtDefault
			if ro {
				prot = ProtRead
			}
			err := m.Protect(pageAddr(p), uint64(n)*testPageSize, false, prot)
			if err == nil {
				for i := p; i < p+n; i++ {
					if model[i].valid {
						model[i].writable = !ro
					}
				}
			}
		case 3: // write
			data := make([]byte, n*testPageSize/2+1+next(16))
			for i := range data {
				data[i] = byte(next(256))
			}
			off := uint64(next(testPageSize / 2))
			addr := pageAddr(p) + off
			end := int(addr-mapLo) + len(data)
			lastPage := (end - 1) / testPageSize
			if lastPage >= npages {
				continue
			}
			firstPage := p
			err := m.WriteBytes(addr, data)
			if rangeWritable(firstPage, lastPage-firstPage+1) {
				if err != nil {
					t.Fatalf("op %d: write to writable range: %v", op, err)
				}
				copy(content[addr-mapLo:], data)
			} else {
				if err == nil {
					t.Fatalf("op %d: write to invalid/ro range [%d..%d] succeeded", op, firstPage, lastPage)
				}
				// Writes are applied page chunk by page chunk until the
				// first non-writable page faults: mirror the partial
				// write in the model.
				for i := firstPage; i <= lastPage; i++ {
					if !model[i].valid || !model[i].writable {
						boundary := uint64(i) * testPageSize
						written := int(mapLo + boundary - addr)
						if written > 0 {
							copy(content[addr-mapLo:], data[:written])
						}
						break
					}
				}
			}
		case 4: // read and compare
			size := n*testPageSize/2 + 1
			addr := pageAddr(p)
			lastPage := (int(addr-mapLo) + size - 1) / testPageSize
			if lastPage >= npages {
				continue
			}
			buf := make([]byte, size)
			err := m.ReadBytes(addr, buf)
			if rangeValid(p, lastPage-p+1) {
				if err != nil {
					t.Fatalf("op %d: read of valid range: %v", op, err)
				}
				if !bytes.Equal(buf, content[addr-mapLo:int(addr-mapLo)+size]) {
					t.Fatalf("op %d: read mismatch at page %d", op, p)
				}
			} else if err == nil {
				t.Fatalf("op %d: read of invalid range succeeded", op)
			}
		case 5: // occasionally fork and verify COW isolation
			if op%17 != 0 {
				continue
			}
			child := m.Fork()
			// The child must see the same contents for valid pages.
			for i := 0; i < npages; i++ {
				if !model[i].valid {
					continue
				}
				got := make([]byte, 8)
				if err := child.ReadBytes(pageAddr(i), got); err != nil {
					t.Fatalf("op %d: child read page %d: %v", op, i, err)
				}
				if !bytes.Equal(got, content[i*testPageSize:i*testPageSize+8]) {
					t.Fatalf("op %d: child content mismatch page %d", op, i)
				}
			}
			// A child write must not leak to the parent.
			for i := 0; i < npages; i++ {
				if model[i].valid && model[i].writable {
					if err := child.WriteBytes(pageAddr(i), []byte{0xFE}); err != nil {
						t.Fatalf("op %d: child write: %v", op, err)
					}
					got := make([]byte, 1)
					m.ReadBytes(pageAddr(i), got)
					if got[0] != content[i*testPageSize] {
						t.Fatalf("op %d: child write leaked to parent", op)
					}
					break
				}
			}
			child.Destroy()
		}
	}
}

// TestReservedPoolHonored checks §6.2.3: ordinary allocations leave the
// reserved frames for the pageout path.
func TestReservedPoolHonored(t *testing.T) {
	s := NewSystem(Config{Frames: 8, PageSize: testPageSize, FreeTarget: 1, Reserved: 3})
	defer s.Shutdown()
	// No default pager: dirty anonymous pages cannot be evicted, so
	// ordinary allocation must stop at the reserve rather than take
	// the last 3 frames.
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; i < 5; i++ {
			if s.frames.FreeFrames() <= s.reserved {
				return
			}
			s.allocFrameLocked(false)
			got++
		}
	}()
	<-done
	if got != 5 {
		t.Fatalf("allocated %d ordinary frames, want 5 (8 total - 3 reserved)", got)
	}
	if free := s.frames.FreeFrames(); free != 3 {
		t.Fatalf("free %d, want exactly the 3 reserved", free)
	}
	// The pageout path can still take from the reserve.
	s.mu.Lock()
	f := s.allocFrameLocked(true)
	s.mu.Unlock()
	if f == -1 {
		t.Fatal("pageout path could not use reserved frame")
	}
}

// TestPageoutReactivationSavesHotPages: referenced pages on the inactive
// queue must be reactivated, not evicted (§5.4's LRU behaviour).
func TestPageoutReactivationSavesHotPages(t *testing.T) {
	s := NewSystem(Config{Frames: 32, PageSize: testPageSize, FreeTarget: 8})
	defer s.Shutdown()
	dp := newFakePager(s)
	s.SetDefaultPager(func(obj *Object) Pager { return dp })
	m := s.NewMap(mapLo, mapHi)
	const hot = 4
	const total = 96
	addr, _ := m.Allocate(0, total*testPageSize, true)
	buf := make([]byte, testPageSize)
	for i := 0; i < total; i++ {
		buf[0] = byte(i)
		if err := m.WriteBytes(addr+uint64(i)*testPageSize, buf); err != nil {
			t.Fatal(err)
		}
		// Keep the hot pages warm.
		for h := 0; h < hot; h++ {
			if err := m.ReadBytes(addr+uint64(h)*testPageSize, buf[:1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Reactivations == 0 {
		t.Fatalf("no reactivations despite hot set: %+v", st)
	}
	// Hot pages still correct.
	for h := 0; h < hot; h++ {
		m.ReadBytes(addr+uint64(h)*testPageSize, buf[:1])
		if buf[0] != byte(h) {
			t.Fatalf("hot page %d corrupted: %d", h, buf[0])
		}
	}
}

// TestGrowObject verifies mapping at a larger offset grows the kernel's
// object.
func TestGrowObject(t *testing.T) {
	s := newTestSystem(t)
	fp := newFakePager(s)
	obj := s.NewExternalObject(fp, testPageSize)
	if obj.Size() != testPageSize {
		t.Fatalf("size %d", obj.Size())
	}
	s.GrowObject(obj, 5*testPageSize)
	if obj.Size() != 5*testPageSize {
		t.Fatalf("grown size %d", obj.Size())
	}
	s.GrowObject(obj, testPageSize) // never shrinks
	if obj.Size() != 5*testPageSize {
		t.Fatalf("shrunk to %d", obj.Size())
	}
}

// TestRegionInfoAfterProtectClip verifies vm_regions reflects clipped
// protections.
func TestRegionInfoAfterProtectClip(t *testing.T) {
	s := newTestSystem(t)
	m := s.NewMap(mapLo, mapHi)
	addr, _ := m.Allocate(0, 4*testPageSize, true)
	if err := m.Protect(addr+testPageSize, 2*testPageSize, false, ProtRead); err != nil {
		t.Fatal(err)
	}
	regions := m.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions %d: %+v", len(regions), regions)
	}
	wantProt := []Prot{ProtDefault, ProtRead, ProtDefault}
	wantSize := []uint64{testPageSize, 2 * testPageSize, testPageSize}
	for i, r := range regions {
		if r.Prot != wantProt[i] || r.Size != wantSize[i] {
			t.Fatalf("region %d: %+v", i, r)
		}
	}
	// Clipped entries still reference the same object at shifted
	// offsets.
	if regions[1].ObjectID != regions[0].ObjectID {
		t.Fatal("clip changed backing object")
	}
	if regions[1].Offset != testPageSize || regions[2].Offset != 3*testPageSize {
		t.Fatalf("clip offsets %d/%d", regions[1].Offset, regions[2].Offset)
	}
}

// TestStatsString smoke-checks Prot rendering for completeness.
func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		ProtNone:               "---",
		ProtRead:               "r--",
		ProtWrite:              "-w-",
		ProtRead | ProtExecute: "r-x",
		ProtAll:                "rwx",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("%d renders %q, want %q", p, got, want)
		}
	}
	if fmt.Sprint(InheritNone) != "none" {
		t.Fatal("InheritNone name")
	}
}

// TestConcurrentTransitMatchesModel is the concurrent half of the model:
// goroutines, each with its own task map, move regions through ONE shared
// transit map the way out-of-line sends do — allocate, write, CopyRegionTo
// the transit map, CopyRegionTo a receiving map, read back, deallocate.
// The model is what a correct map cannot violate however the goroutines
// interleave: live transit ranges never overlap, no copy fails for want
// of space that is there, and every read returns its goroutine's own last
// write. Run it at -cpu 2 or more (make stress); on one processor the
// interleavings that break an unreserved destination do not occur.
func TestConcurrentTransitMatchesModel(t *testing.T) {
	const (
		goroutines = 8
		iters      = 150
	)
	s := NewSystem(Config{Frames: 1024, PageSize: testPageSize})
	t.Cleanup(s.Shutdown)
	transit := s.NewMap(mapLo, mapHi)

	// live is the model of the transit map: the ranges in use.
	type span struct{ lo, hi uint64 }
	var (
		liveMu sync.Mutex
		live   = map[span]int{}
	)
	claim := func(g int, r span) error {
		liveMu.Lock()
		defer liveMu.Unlock()
		for o, owner := range live {
			if r.lo < o.hi && o.lo < r.hi {
				return fmt.Errorf("transit range %#x-%#x handed out while goroutine %d holds %#x-%#x", r.lo, r.hi, owner, o.lo, o.hi)
			}
		}
		live[r] = g
		return nil
	}
	release := func(r span) {
		liveMu.Lock()
		delete(live, r)
		liveMu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sender, receiver := s.NewMap(mapLo, mapHi), s.NewMap(mapLo, mapHi)
			defer sender.Destroy()
			defer receiver.Destroy()
			for i := 0; i < iters; i++ {
				size := uint64(1+(g+i)%4) * testPageSize
				want := bytes.Repeat([]byte{byte(g), byte(i), byte(i >> 8)}, int(size)/3+1)[:size]
				fail := func(step string, err error) {
					t.Errorf("goroutine %d iteration %d: %s: %v", g, i, step, err)
				}
				addr, err := sender.Allocate(0, size, true)
				if err != nil {
					fail("allocate", err)
					return
				}
				if err := sender.WriteBytes(addr, want); err != nil {
					fail("write", err)
					return
				}
				at, err := sender.CopyRegionTo(transit, addr, size)
				if err != nil {
					fail("copy to transit", err)
					return
				}
				r := span{at, at + size}
				if err := claim(g, r); err != nil {
					fail("claim", err)
					return
				}
				if err := sender.Deallocate(addr, size); err != nil {
					fail("deallocate the source", err)
					return
				}
				got := make([]byte, size)
				if err := transit.ReadBytes(at, got); err != nil {
					fail("read in transit", err)
					return
				}
				if !bytes.Equal(got, want) {
					fail("read in transit", fmt.Errorf("byte 0 is %d/%d, want %d/%d", got[0], got[1], want[0], want[1]))
					return
				}
				to, err := transit.CopyRegionTo(receiver, at, size)
				if err != nil {
					fail("copy out of transit", err)
					return
				}
				// The model forgets the range before the map does: from
				// the Deallocate on, the address may be anyone's.
				release(r)
				if err := transit.Deallocate(at, size); err != nil {
					fail("deallocate transit", err)
					return
				}
				if err := receiver.ReadBytes(to, got); err != nil {
					fail("read at the receiver", err)
					return
				}
				if !bytes.Equal(got, want) {
					fail("read at the receiver", fmt.Errorf("byte 0 is %d/%d, want %d/%d", got[0], got[1], want[0], want[1]))
					return
				}
				if err := receiver.Deallocate(to, size); err != nil {
					fail("deallocate at the receiver", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(transit.Regions()); n != 0 {
		t.Fatalf("%d regions left in the transit map", n)
	}
}
