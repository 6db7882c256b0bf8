package pager

import (
	"bytes"
	"testing"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vm"
)

// newMessage builds the payload encodePayload does, at the same wire
// size, with the sections placed before it first.
func TestNewMessageMatchesEncodePayload(t *testing.T) {
	data := bytes.Repeat([]byte{0xa5}, 300)
	right := ipc.CarryRawRight(ipc.NewRawPort(0), ipc.SendRight)
	for _, d := range [][]byte{nil, data} {
		m := newMessage(MsgDataWrite, 4096, 8192, vm.ProtWrite, 3, d, right)
		want := encodePayload(4096, 8192, vm.ProtWrite, 3, d)
		lit := &ipc.Message{ID: MsgDataWrite, Sections: []ipc.Section{right, ipc.InlineBytes(want)}}
		if m.ID != MsgDataWrite || len(m.Sections) != 2 || m.Sections[0].Kind != ipc.PortRightSection {
			t.Fatalf("message %d with %d sections", m.ID, len(m.Sections))
		}
		if !bytes.Equal(m.InlineData(), want) || m.WireSize() != lit.WireSize() {
			t.Fatalf("payload %x (wire %d), want %x (wire %d)", m.InlineData(), m.WireSize(), want, lit.WireSize())
		}
		m.Release()
	}
}

// signalStore tells the test each time the manager has stored a page.
type signalStore struct {
	BlockStore
	wrote chan struct{}
}

func (s *signalStore) Write(block int, src []byte) {
	s.BlockStore.Write(block, src)
	s.wrote <- struct{}{}
}

// allocRig is a kernel VM system with one object served by a default
// pager over a frame pool, run by its Manager on the kernel's host.
type allocRig struct {
	sys   *vm.System
	cache *ObjectCache
	dp    *DefaultPager
	mo    *MemoryObject
	obj   *vm.Object
	store *signalStore
}

func newAllocRig(t *testing.T) *allocRig {
	t.Helper()
	sys := vm.NewSystem(vm.Config{Frames: 16, PageSize: grantPage})
	t.Cleanup(sys.Shutdown)
	store := &signalStore{BlockStore: NewFramePool(machine.NewDisk(16, grantPage, 0, nil), 4), wrote: make(chan struct{}, 1)}
	r := &allocRig{sys: sys, cache: NewObjectCache(sys, 0, nil), dp: NewDefaultPagerStore(store), store: store}
	mgr := NewManager(ipc.NewSpace(0, nil), r.dp)
	var err error
	if r.mo, err = mgr.NewObject(nil); err != nil {
		t.Fatal(err)
	}
	go mgr.Run()
	t.Cleanup(mgr.Stop)
	moPort, _ := mgr.Space.Resolve(r.mo.Port)
	r.obj = r.cache.Lookup(moPort, grantPage)
	return r
}

// A pager_data_write in the steady state allocates nothing end to end:
// the kernel's pooled message, Dispatch decoding it and releasing it once
// the DefaultPager has stored the page in its frame pool.
func TestDataWriteRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := newAllocRig(t)
	moPort, _ := r.mo.mgr.Space.Resolve(r.mo.Port)
	kernel := &remotePager{cache: r.cache, moPort: moPort}
	page := bytes.Repeat([]byte{7}, grantPage)
	write := func() {
		kernel.DataWrite(r.obj, 0, page)
		<-r.store.wrote
	}
	for i := 0; i < 50; i++ {
		write()
	}
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Fatalf("pager_data_write round trip allocates %v times", n)
	}
	got := make([]byte, grantPage)
	r.store.Read(0, got)
	if !bytes.Equal(got, page) {
		t.Fatalf("stored page %x", got[:4])
	}
}

// A page-in in the steady state allocates nothing end to end: the fault's
// pager_data_request lends its frame, the DefaultPager reads the page
// into it, and pager_data_provided brings the grant back.
func TestGrantedDataRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := newAllocRig(t)
	page := bytes.Repeat([]byte{9}, grantPage)
	r.dp.DataWrite(r.mo, 0, page)
	<-r.store.wrote
	m := r.sys.NewMap(0x1000, 0x100000)
	addr, err := m.AllocateWithObject(r.obj, 0, 0, grantPage, true, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, grantPage)
	pageIn := func() {
		if err := m.ReadBytes(addr, buf); err != nil || !bytes.Equal(buf, page) {
			t.Fatalf("read %v %x", err, buf[:4])
		}
		// The page is clean: flushing it only drops it, and the next
		// read faults it in again.
		r.sys.FlushRequest(r.obj, 0, grantPage)
	}
	for i := 0; i < 50; i++ {
		pageIn()
	}
	copied, pageins := obs.VM().PageinBytesCopied.Load(), r.sys.Stats().Pageins
	if n := testing.AllocsPerRun(200, pageIn); n != 0 {
		t.Fatalf("granted page-in allocates %v times", n)
	}
	if n := r.sys.Stats().Pageins - pageins; n != 201 {
		t.Fatalf("%d page-ins, want 201", n)
	}
	if n := obs.VM().PageinBytesCopied.Load() - copied; n != 0 {
		t.Fatalf("%d page bytes copied: the page-ins did not go through the grant", n)
	}
}
