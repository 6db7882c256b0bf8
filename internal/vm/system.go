package vm

import (
	"errors"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Errors returned by VM operations.
var (
	// ErrNoSpace: no address range of the requested size is free.
	ErrNoSpace = errors.New("vm: no space in address map")
	// ErrInvalidAddress: the address range is not (entirely) valid.
	ErrInvalidAddress = errors.New("vm: invalid address")
	// ErrProtection: the requested access exceeds the permitted
	// protection.
	ErrProtection = errors.New("vm: protection failure")
	// ErrMemoryFailure: the data manager backing the memory failed to
	// provide it (timeout or object destruction), §6.2.1.
	ErrMemoryFailure = errors.New("vm: memory object failure")
	// ErrBadArgument: misaligned or out-of-range parameters.
	ErrBadArgument = errors.New("vm: bad argument")
)

// Statistics is the vm_statistics result (Table 3-3): counters describing
// the use of virtual memory since boot.
type Statistics struct {
	PageSize      int
	FreeCount     int
	ActiveCount   int
	InactiveCount int
	Faults        int64 // total hardware faults taken
	ZeroFills     int64 // faults satisfied by zero-fill
	CowFaults     int64 // faults that copied a page
	Pageins       int64 // pages received from data managers
	Pageouts      int64 // pages written to data managers
	Reactivations int64 // inactive pages saved by their reference bit
	Lookups       int64 // VP table lookups
	Hits          int64 // VP table hits
	UnlockWaits   int64 // faults that waited for pager_data_unlock
}

// FaultPolicy says what a fault should do when a data manager does not
// answer (§6.2.1): wait forever, abort after a timeout, or substitute
// zero-filled default-pager memory after a timeout.
type FaultPolicy struct {
	// Timeout bounds the wait for pager_data_provided; zero waits
	// forever.
	Timeout time.Duration
	// ZeroFillOnTimeout substitutes zero-filled memory instead of
	// failing the fault when the timeout expires.
	ZeroFillOnTimeout bool
}

// Config sizes a VM system.
type Config struct {
	// Frames and PageSize define physical memory.
	Frames   int
	PageSize int
	// FreeTarget is the free-frame level the pageout daemon maintains;
	// defaults to max(4, Frames/16).
	FreeTarget int
	// Reserved frames are usable only by the pageout path itself
	// (§6.2.3); defaults to 2.
	Reserved int
	// Clock receives simulated time charges (may be nil).
	Clock *machine.Clock
	// Model charges memory-access costs (zero value disables).
	Model machine.CostModel
	// DefaultPager is consulted when an internal object must be paged
	// out for the first time (the pager_create flow). May be nil in
	// unit tests that never page out anonymous memory.
	DefaultPager func(*Object) Pager
	// Fault is the fault policy; the zero value waits forever.
	Fault FaultPolicy
	// Host is the simulated host the system runs on, stamped on the
	// frame grants it lends.
	Host machine.HostID
}

// System is one kernel's virtual memory system: physical memory, the
// resident-page cache over all memory objects, the pageout queues and
// daemon, and the machine-independent fault handler. All address maps on
// a host share one System.
type System struct {
	frames *machine.FrameTable
	clock  *machine.Clock
	model  machine.CostModel
	host   machine.HostID
	met    *obs.VMMetrics

	mu   sync.Mutex
	cond *sync.Cond // broadcast on page-state / free-frame changes

	hash       *vpHash
	active     pageList
	inactive   pageList
	pv         [][]pvRef // by frame
	frame2page map[machine.Frame]*Page

	freeTarget   int
	reserved     int
	lent         int // frames out on loan in frame grants
	fault        FaultPolicy
	defaultPager func(*Object) Pager

	stats Statistics

	// pageFree holds zeroed Page structures for pageInsert to reuse, and
	// pageBufs the page buffers the pageout daemon copies dirty frames
	// into for their pager_data_write; neither keeps more than the
	// frame count.
	pageFree []*Page
	pageBufs [][]byte
	// jobs is the pageout daemon's write-back list, kept across its
	// passes (only the daemon touches it).
	jobs []pageoutJob

	daemonWake chan struct{}
	daemonStop chan struct{}
	daemonDone chan struct{}
}

// NewSystem boots a VM system with the given configuration and starts its
// pageout daemon. Call Shutdown to stop the daemon.
func NewSystem(cfg Config) *System {
	if cfg.Frames <= 0 || cfg.PageSize <= 0 {
		panic("vm: config must specify Frames and PageSize")
	}
	if cfg.FreeTarget <= 0 {
		cfg.FreeTarget = cfg.Frames / 16
		if cfg.FreeTarget < 4 {
			cfg.FreeTarget = 4
		}
	}
	if cfg.Reserved <= 0 {
		cfg.Reserved = 2
	}
	s := &System{
		frames:       machine.NewFrameTable(cfg.Frames, cfg.PageSize),
		clock:        cfg.Clock,
		model:        cfg.Model,
		host:         cfg.Host,
		met:          obs.VM(),
		hash:         newVPHash(cfg.Frames * 2),
		pv:           make([][]pvRef, cfg.Frames),
		frame2page:   make(map[machine.Frame]*Page),
		freeTarget:   cfg.FreeTarget,
		reserved:     cfg.Reserved,
		fault:        cfg.Fault,
		defaultPager: cfg.DefaultPager,
		daemonWake:   make(chan struct{}, 1),
		daemonStop:   make(chan struct{}),
		daemonDone:   make(chan struct{}),
	}
	s.active.kind = queueActive
	s.inactive.kind = queueInactive
	s.cond = sync.NewCond(&s.mu)
	go s.pageoutDaemon()
	return s
}

// Shutdown stops the pageout daemon. The system must not be used after.
func (s *System) Shutdown() {
	close(s.daemonStop)
	<-s.daemonDone
}

// PageSize returns the system page size in bytes.
func (s *System) PageSize() uint64 { return uint64(s.frames.PageSize()) }

// Clock returns the simulated clock (may be nil).
func (s *System) Clock() *machine.Clock { return s.clock }

// SetDefaultPager installs the factory that adopts internal objects at
// first page-out (used by the kern bootstrap after the default pager task
// starts).
func (s *System) SetDefaultPager(f func(*Object) Pager) {
	s.mu.Lock()
	s.defaultPager = f
	s.mu.Unlock()
}

// SetFaultPolicy replaces the memory-failure policy (§6.2.1).
func (s *System) SetFaultPolicy(p FaultPolicy) {
	s.mu.Lock()
	s.fault = p
	s.mu.Unlock()
}

// Stats returns a snapshot of the vm_statistics counters.
func (s *System) Stats() Statistics {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.PageSize = s.frames.PageSize()
	st.FreeCount = s.frames.FreeFrames()
	st.ActiveCount = s.active.count
	st.InactiveCount = s.inactive.count
	return st
}

// trunc rounds an address down to a page boundary.
func (s *System) trunc(a uint64) uint64 { return a &^ (s.PageSize() - 1) }

// round rounds an address up to a page boundary.
func (s *System) round(a uint64) uint64 {
	ps := s.PageSize()
	return (a + ps - 1) &^ (ps - 1)
}

// charge adds simulated time for one memory access of n bytes.
func (s *System) charge(n int) {
	if s.clock == nil {
		return
	}
	d := s.model.LocalAccess + time.Duration(n)*s.model.ByteCopy
	s.clock.Advance(d)
}

// --- Object lifecycle ----------------------------------------------------

// NewAnonymousObject creates a kernel-internal zero-fill object of the
// given size (rounded up to pages), the backing for vm_allocate memory.
func (s *System) NewAnonymousObject(size uint64) *Object {
	return newObject(s.round(size), nil, true)
}

// NewExternalObject creates an object backed by a data manager via the
// Pager interface. Size is rounded up to pages.
func (s *System) NewExternalObject(pager Pager, size uint64) *Object {
	return newObject(s.round(size), pager, false)
}

// GrowObject extends an object to at least size bytes (rounded up to a
// page). Mapping a memory object at a larger offset than before grows the
// kernel's idea of it.
func (s *System) GrowObject(o *Object, size uint64) {
	size = s.round(size)
	s.mu.Lock()
	if size > o.size {
		o.size = size
	}
	s.mu.Unlock()
}

// ObjectRef takes an address-map reference on an object.
func (s *System) ObjectRef(o *Object) {
	s.mu.Lock()
	o.refs++
	s.mu.Unlock()
}

// ObjectDeref drops a reference; at zero the object is terminated unless
// its manager granted pager_cache persistence.
func (s *System) ObjectDeref(o *Object) {
	s.mu.Lock()
	o.refs--
	if o.refs > 0 || o.canPersist {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.terminateObject(o)
}

// terminateObject releases every cached page (cleaning dirty ones back to
// the manager) and tells the pager the kernel is done with the object.
// The manager can fail (ObjectFailed) while termination waits for a busy
// page; its dirty pages then have nowhere to go and are dropped.
func (s *System) terminateObject(o *Object) {
	type writeback struct {
		offset uint64
		data   []byte
	}
	var wbs []writeback
	s.mu.Lock()
	if o.destroyed {
		s.mu.Unlock()
		return
	}
	o.destroyed = true
	for o.pages != nil {
		p := o.pages
		if p.busy {
			// Wait for transitions to settle.
			s.cond.Wait()
			continue
		}
		if p.dirty && o.pager != nil && !o.internal {
			data := s.pageBufLocked()
			copy(data, s.frames.Bytes(p.frame))
			wbs = append(wbs, writeback{p.offset, data})
		}
		s.freePageLocked(p)
	}
	shadow := o.shadow
	o.shadow = nil
	// Read after the last wait: a pager that failed during one took the
	// pages collected before it down with it.
	pager := o.pager
	if pager == nil {
		for _, wb := range wbs {
			s.putPageBufLocked(wb.data)
		}
		wbs = nil
	}
	s.stats.Pageouts += int64(len(wbs))
	s.mu.Unlock()

	for _, wb := range wbs {
		pager.DataWrite(o, wb.offset, wb.data)
	}
	if len(wbs) > 0 {
		s.mu.Lock()
		for _, wb := range wbs {
			s.putPageBufLocked(wb.data)
		}
		s.mu.Unlock()
	}
	if pager != nil {
		pager.Terminate(o)
	}
	if shadow != nil {
		s.ObjectDeref(shadow)
	}
}

// shadowObject interposes a new internal object in front of obj: writes
// land in the shadow, reads fall through. Caller transfers its reference
// on obj to the shadow chain.
func (s *System) shadowObject(obj *Object, size uint64) *Object {
	sh := newObject(size, nil, true)
	sh.shadow = obj
	sh.shadowOffset = 0
	sh.refs = 1
	return sh
}

// --- Page lifecycle (System lock held unless noted) ----------------------

// pageLookup consults the VP table.
func (s *System) pageLookup(obj *Object, offset uint64) *Page {
	s.stats.Lookups++
	p := s.hash.lookup(obj, offset)
	if p != nil {
		s.stats.Hits++
	}
	return p
}

// pageInsert creates a resident-page structure for (obj, offset) with no
// frame yet and links it into the hash and object list. The structure
// may be one freePageLocked recycled.
func (s *System) pageInsert(obj *Object, offset uint64) *Page {
	var p *Page
	if n := len(s.pageFree); n > 0 {
		p = s.pageFree[n-1]
		s.pageFree[n-1] = nil
		s.pageFree = s.pageFree[:n-1]
	} else {
		p = new(Page)
	}
	p.object, p.offset, p.frame = obj, offset, machine.InvalidFrame
	s.hash.insert(p)
	obj.linkPage(p)
	return p
}

// freePageLocked removes a page entirely: queues, hash, object list, and
// its physical frame. The structure is zeroed, but for its generation, and
// recycled by pageInsert, so whoever holds a page across a wait
// (cond.Wait, allocFrameLocked) either keeps it busy, which no path frees,
// or checks after the wait that p.gen is still the one it saw.
func (s *System) freePageLocked(p *Page) {
	switch p.queue {
	case queueActive:
		s.active.remove(p)
	case queueInactive:
		s.inactive.remove(p)
	}
	s.hash.remove(p)
	p.object.unlinkPage(p)
	if p.frame != machine.InvalidFrame {
		s.pmapRemoveAll(p.frame)
		delete(s.frame2page, p.frame)
		s.frames.Free(p.frame)
	}
	*p = Page{gen: p.gen + 1}
	if len(s.pageFree) < s.frames.TotalFrames() {
		s.pageFree = append(s.pageFree, p)
	}
	s.cond.Broadcast()
}

// pageBufLocked returns a page-sized buffer to carry a dirty page's
// contents to its pager — from the pageout daemon, a clean or flush
// request, or object termination. System lock held.
func (s *System) pageBufLocked() []byte {
	if n := len(s.pageBufs); n > 0 {
		b := s.pageBufs[n-1]
		s.pageBufs[n-1] = nil
		s.pageBufs = s.pageBufs[:n-1]
		return b
	}
	return make([]byte, s.PageSize())
}

// putPageBufLocked recycles a pageBufLocked buffer once the DataWrite
// that carried it has returned (the Pager contract: data is valid only
// for the call). System lock held.
func (s *System) putPageBufLocked(b []byte) {
	if len(s.pageBufs) < s.frames.TotalFrames() {
		s.pageBufs = append(s.pageBufs, b)
	}
}

// assignFrameLocked binds a freshly allocated frame to a page.
func (s *System) assignFrameLocked(p *Page, f machine.Frame) {
	p.frame = f
	s.frame2page[f] = p
}

// waitCondLocked waits on the system condition until broadcast or until
// deadline passes (zero deadline waits forever). Returns false on
// timeout. Callers must re-check their predicate.
func (s *System) waitCondLocked(deadline time.Time) bool {
	if deadline.IsZero() {
		s.cond.Wait()
		return true
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.cond.Wait()
	t.Stop()
	return true
}

// activateLocked puts a page on the tail (MRU end) of the active queue.
func (s *System) activateLocked(p *Page) {
	switch p.queue {
	case queueActive:
		s.active.remove(p)
	case queueInactive:
		s.inactive.remove(p)
		s.stats.Reactivations++
	}
	s.active.pushTail(p)
}

// allocFrameLocked obtains a free frame, honouring the reserved pool:
// ordinary allocations leave `reserved` frames for the pageout path
// (forPageout). It wakes the daemon and waits when memory is tight.
func (s *System) allocFrameLocked(forPageout bool) machine.Frame {
	for {
		free := s.frames.FreeFrames()
		limit := s.reserved
		if forPageout {
			limit = 0
		}
		if free > limit {
			if f, ok := s.frames.Alloc(); ok {
				if s.shortfallLocked() > 0 {
					s.wakeDaemon()
				}
				return f
			}
		}
		s.wakeDaemon()
		s.cond.Wait()
	}
}

// shortfallLocked is how many frames the pageout daemon has to free. A
// frame lent to a data manager (FrameGrant) counts as free until it is
// installed, as it was before grants, when the frame was taken only once
// the data arrived: so a page-in moves the daemon the same way whether it
// comes by grant or by copy. But frames on loan never leave an ordinary
// allocation waiting: while the real free count is down to the reserve,
// the daemon frees one more. System lock held.
func (s *System) shortfallLocked() int {
	free := s.frames.FreeFrames()
	return max(s.freeTarget-(free+s.lent), s.reserved+1-free)
}

func (s *System) wakeDaemon() {
	select {
	case s.daemonWake <- struct{}{}:
	default:
	}
}
