package pager

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/obs"
	"repro/internal/vm"
)

const grantPage = 128

// rangeHandler answers every request with ProvideRange from the pages it
// holds, once its gate is open. It records the grant each request
// brought, before the handler runs.
type rangeHandler struct {
	NopHandler
	mu      sync.Mutex
	pages   map[uint64]byte // offset -> fill byte
	byCopy  bool            // answer with DataProvided instead
	lent    []bool
	arrived chan struct{}
	gate    chan struct{} // nil: always open
	opened  sync.Once
}

// open opens the gate, once.
func (h *rangeHandler) open() { h.opened.Do(func() { close(h.gate) }) }

func (h *rangeHandler) DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot) {
	h.mu.Lock()
	h.lent = append(h.lent, mo.grant.Load() != nil)
	h.mu.Unlock()
	if h.arrived != nil {
		h.arrived <- struct{}{}
	}
	if h.gate != nil {
		<-h.gate
	}
	read := func(off uint64, page []byte) bool {
		h.mu.Lock()
		b, ok := h.pages[off]
		h.mu.Unlock()
		if ok {
			copy(page, bytes.Repeat([]byte{b}, len(page)))
		}
		return ok
	}
	if h.byCopy {
		page := make([]byte, grantPage)
		if read(offset, page) {
			_ = mo.DataProvided(offset, page, vm.ProtNone)
		} else {
			_ = mo.DataUnavailable(offset, grantPage)
		}
		return
	}
	mo.ProvideRange(offset, length, grantPage, read)
}

// grantRig is one kernel VM system with an object served by a manager on
// its own host, mapped at addr.
type grantRig struct {
	sys   *vm.System
	mgr   *Manager
	obj   *vm.Object
	m     *vm.Map
	addr  uint64
	size  uint64
	free0 int
}

func newGrantRig(t *testing.T, h Handler, pages uint64, policy vm.FaultPolicy, run bool) *grantRig {
	t.Helper()
	sys := vm.NewSystem(vm.Config{Frames: 64, PageSize: grantPage, Fault: policy})
	t.Cleanup(sys.Shutdown)
	cache := NewObjectCache(sys, 0, nil)
	mgr := NewManager(ipc.NewSpace(0, nil), h)
	mo, err := mgr.NewObject(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run {
		go mgr.Run()
	}
	t.Cleanup(mgr.Stop)
	if rh, ok := h.(*rangeHandler); ok && rh.gate != nil {
		// A test that fails with the handler held still lets Stop
		// join the loop (cleanups run last first).
		t.Cleanup(rh.open)
	}
	moPort, _ := mgr.Space.Resolve(mo.Port)
	r := &grantRig{sys: sys, mgr: mgr, size: pages * grantPage, free0: sys.Stats().FreeCount}
	r.obj = cache.Lookup(moPort, r.size)
	r.m = sys.NewMap(0x1000, 0x100000)
	if r.addr, err = r.m.AllocateWithObject(r.obj, 0, 0, r.size, true, false); err != nil {
		t.Fatal(err)
	}
	return r
}

// read faults n pages in from the start of the mapping.
func (r *grantRig) read(n uint64) ([]byte, error) {
	b := make([]byte, n*grantPage)
	return b, r.m.ReadBytes(r.addr, b)
}

// settled deallocates the mapping, which terminates the object, and waits
// for every frame to come back: the ones that became pages, and the ones
// a grant still in flight holds.
func (r *grantRig) settled(t *testing.T) {
	t.Helper()
	if r.size != 0 {
		if err := r.m.Deallocate(r.addr, r.size); err != nil {
			t.Fatal(err)
		}
	}
	r.waitFree(t, r.free0)
}

// waitFree waits for the free frame count to reach want.
func (r *grantRig) waitFree(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.sys.Stats().FreeCount != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames free, want %d", r.sys.Stats().FreeCount, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func pagesOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n*grantPage) }

// ProvideRange reads a co-located request's pages into the frames it
// lent: the bytes are right and none of them went through the copy path.
func TestProvideRangeFillsGrant(t *testing.T) {
	h := &rangeHandler{pages: map[uint64]byte{0: 7, grantPage: 7, 2 * grantPage: 7, 3 * grantPage: 7}}
	r := newGrantRig(t, h, 4, vm.FaultPolicy{}, true)
	copied := obs.VM().PageinBytesCopied.Load()
	got, err := r.read(4)
	if err != nil || !bytes.Equal(got, pagesOf(7, 4)) {
		t.Fatalf("read %v, %x", err, got[:1])
	}
	if n := obs.VM().PageinBytesCopied.Load() - copied; n != 0 {
		t.Fatalf("%d page bytes copied", n)
	}
	h.mu.Lock()
	lent := h.lent
	h.mu.Unlock()
	if st := r.sys.Stats(); st.Pageins != 4 || len(lent) != 1 || !lent[0] {
		t.Fatalf("%d page-ins, requests lent %v; want 4 and one lent request", st.Pageins, lent)
	}
	r.settled(t)
}

// Every way a grant can end gives its frames back.
func TestGrantFramesComeBack(t *testing.T) {
	wait := func(t *testing.T, ch chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("the request never reached the manager")
		}
	}
	timeout := vm.FaultPolicy{Timeout: 30 * time.Millisecond}

	t.Run("manager dies with the request queued", func(t *testing.T) {
		r := newGrantRig(t, &rangeHandler{}, 4, timeout, false)
		if _, err := r.read(4); err != vm.ErrMemoryFailure {
			t.Fatalf("fault on a manager that never answers: %v", err)
		}
		r.mgr.Stop()
		r.settled(t)
	})

	t.Run("handler declines and answers by copy", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{0: 3, grantPage: 3, 2 * grantPage: 3}, byCopy: true}
		r := newGrantRig(t, h, 4, vm.FaultPolicy{}, true)
		copied := obs.VM().PageinBytesCopied.Load()
		if got, err := r.read(2); err != nil || !bytes.Equal(got, pagesOf(3, 2)) {
			t.Fatalf("read %v", err)
		}
		// Once Dispatch has given the unused grant back, only the two
		// pages hold frames.
		r.waitFree(t, r.free0-2)
		if got, err := r.read(3); err != nil || !bytes.Equal(got, pagesOf(3, 3)) {
			t.Fatalf("read %v", err)
		}
		if n := obs.VM().PageinBytesCopied.Load() - copied; n != 3*grantPage {
			t.Fatalf("%d page bytes copied, want %d", n, 3*grantPage)
		}
		h.mu.Lock()
		lent := h.lent
		h.mu.Unlock()
		if !lent[0] || !lent[len(lent)-1] {
			t.Fatalf("requests lent %v: want every one", lent)
		}
		r.settled(t)
	})

	t.Run("hung manager holds one run however often faults time out", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{0: 1}, arrived: make(chan struct{}, 8), gate: make(chan struct{})}
		r := newGrantRig(t, h, 4, timeout, true)
		for i := 0; i < 3; i++ {
			if _, err := r.read(4); err != vm.ErrMemoryFailure {
				t.Fatalf("fault %d on a hung manager: %v", i, err)
			}
			if free := r.sys.Stats().FreeCount; free != r.free0-4 {
				t.Fatalf("fault %d: %d frames free, want %d (one run lent)", i, free, r.free0-4)
			}
		}
		wait(t, h.arrived)
		h.open()
		r.settled(t)
	})

	t.Run("unavailable for the first page", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{grantPage: 5}}
		r := newGrantRig(t, h, 4, vm.FaultPolicy{}, true)
		got, err := r.read(2)
		if err != nil || !bytes.Equal(got, append(pagesOf(0, 1), pagesOf(5, 1)...)) {
			t.Fatalf("read %v %x", err, got)
		}
		r.settled(t)
	})

	t.Run("object terminated with a grant outstanding", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{0: 1}, arrived: make(chan struct{}, 4), gate: make(chan struct{})}
		r := newGrantRig(t, h, 4, timeout, true)
		if _, err := r.read(1); err != vm.ErrMemoryFailure {
			t.Fatalf("fault with the answer held: %v", err)
		}
		wait(t, h.arrived)
		if err := r.m.Deallocate(r.addr, r.size); err != nil {
			t.Fatal(err)
		}
		h.open()
		r.addr, r.size = 0, 0
		r.settled(t)
	})

	t.Run("object failed with a grant outstanding", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{0: 1, grantPage: 1}, arrived: make(chan struct{}, 4), gate: make(chan struct{})}
		r := newGrantRig(t, h, 4, vm.FaultPolicy{}, true)
		done := make(chan error, 1)
		go func() { _, err := r.read(2); done <- err }()
		wait(t, h.arrived)
		r.sys.ObjectFailed(r.obj, nil)
		if err := <-done; err != vm.ErrMemoryFailure {
			t.Fatalf("fault on a failed object: %v", err)
		}
		h.open()
		// The late grant's pages go into the failed object, where no
		// fault will look; termination frees them.
		r.waitFree(t, r.free0-2)
		r.settled(t)
	})

	t.Run("zero fill on timeout before a late grant", func(t *testing.T) {
		h := &rangeHandler{pages: map[uint64]byte{0: 9, grantPage: 9}, arrived: make(chan struct{}, 4), gate: make(chan struct{})}
		r := newGrantRig(t, h, 4, vm.FaultPolicy{Timeout: 30 * time.Millisecond, ZeroFillOnTimeout: true}, true)
		got, err := r.read(1)
		if err != nil || !bytes.Equal(got, pagesOf(0, 1)) {
			t.Fatalf("read %v %x, want the timeout's zero page", err, got)
		}
		wait(t, h.arrived)
		h.open()
		// Only the zero-filled page holds a frame once the late grant
		// is settled.
		r.waitFree(t, r.free0-1)
		// The late answer kept the zero page the fault already has.
		if got, _ := r.read(1); !bytes.Equal(got, pagesOf(0, 1)) {
			t.Fatalf("page 0 reads %x after the late grant", got[:1])
		}
		r.settled(t)
	})
}
