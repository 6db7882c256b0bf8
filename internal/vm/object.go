package vm

import (
	"sync/atomic"

	"repro/internal/ipc"
)

var objectIDs atomic.Uint64

// Pager is the kernel-to-data-manager half of the external memory
// management interface (Table 3-5). The kern package implements it by
// sending asynchronous IPC messages on the memory object port; tests may
// implement it directly. Calls are made WITHOUT any vm lock held and must
// not block indefinitely: data is returned later through the
// manager-to-kernel entry points on System.
type Pager interface {
	// Init corresponds to pager_init: the object is being mapped for
	// the first time by this kernel.
	Init(obj *Object)
	// DataRequest corresponds to pager_data_request: the kernel needs
	// the page at offset with the given access, and waits for that
	// page only. length is at least one page; beyond the first it is a
	// hint — the absent pages the faulting access goes on to — and
	// the manager may provide any prefix of [offset, offset+length).
	// What it reports with DataUnavailable it must know to be empty:
	// other faults may be waiting for pages inside the hint.
	//
	// grant, when not nil, lends the frames for the whole range, one
	// per page (see FrameGrant); only a FrameBorrower is lent frames.
	// The pager owns the grant from here: it hands it to its manager,
	// which reads the pages into it and returns it through GrantProvided
	// or GrantUnavailable, or gives it back with Discard. A nil grant
	// asks for the copy path.
	DataRequest(obj *Object, offset, length uint64, desired Prot, grant *FrameGrant)
	// DataWrite corresponds to pager_data_write: dirty page contents
	// are being returned to the data manager. data is valid only for
	// the call: the pageout daemon recycles the buffer once DataWrite
	// returns, so a pager copies what it keeps.
	DataWrite(obj *Object, offset uint64, data []byte)
	// DataUnlock corresponds to pager_data_unlock: a task needs more
	// access to cached data than the manager's lock value permits.
	DataUnlock(obj *Object, offset, length uint64, desired Prot)
	// Terminate tells the manager the kernel has dropped its last
	// reference to the object (port deallocation in real Mach).
	Terminate(obj *Object)
}

// Object is the kernel-internal memory object structure (§5.2): the
// kernel's cache-manager state for one memory object. Components follow
// the paper: the ports used to refer to the memory object, its size, the
// number of address-map references, whether caching may persist without
// references, the resident-page list, and the shadow link for
// copy-on-write.
type Object struct {
	id uint64

	// size is the object length in bytes (page aligned).
	size uint64

	// pager is the data manager backing this object, nil for internal
	// objects that have never been paged out (they acquire the default
	// pager lazily, the paper's pager_create flow).
	pager Pager

	// PagerPort / RequestPort / NamePort are the three ports of §3.4.1.
	// They are owned by the kern layer; vm treats them as opaque.
	PagerPort   *ipc.Port
	RequestPort *ipc.Port
	NamePort    *ipc.Port

	// refs counts address-map references plus transient kernel
	// references (paging in progress).
	refs int

	// canPersist records a pager_cache grant: pages may stay cached
	// after refs drops to zero.
	canPersist bool

	// internal marks kernel-created objects (zero fill, shadows);
	// their first page-out triggers default-pager adoption.
	internal bool

	// pagerInitialized records that Init has been sent.
	pagerInitialized bool

	// shadow points at the object this one shadows for COW; reads that
	// miss here continue at shadow (plus shadowOffset).
	shadow       *Object
	shadowOffset uint64

	// pages chains this object's resident pages (objNext links).
	pages *Page

	// destroyed marks an object whose pages are being torn down.
	destroyed bool

	// failErr records a permanent memory failure (manager death):
	// subsequent faults return it instead of zero-filling (§6.2.1).
	failErr error

	// lending records that a frame grant lent with a request for this
	// object is outstanding; noLend, that a fault on it timed out. Either
	// way its requests go without a grant (lendLocked).
	lending, noLend bool
}

// newObject creates an object of the given page-aligned size. Callers
// hold the System lock when publishing it.
func newObject(size uint64, pager Pager, internal bool) *Object {
	return &Object{
		id:       objectIDs.Add(1),
		size:     size,
		pager:    pager,
		internal: internal,
	}
}

// ID returns the kernel-wide object identity (used by vm_regions output
// and the VP hash).
func (o *Object) ID() uint64 { return o.id }

// Size returns the object's length in bytes.
func (o *Object) Size() uint64 { return o.size }

// Internal reports whether this is a kernel-created (anonymous or
// shadow) object.
func (o *Object) Internal() bool { return o.internal }

// PagerBacked reports whether a data manager currently backs the object.
func (o *Object) PagerBacked() bool { return o.pager != nil }

// Shadow returns the object this object shadows, if any.
func (o *Object) Shadow() *Object { return o.shadow }

// linkPage adds p to the object's resident-page list. System lock held.
func (o *Object) linkPage(p *Page) {
	p.objNext = o.pages
	p.objPrev = nil
	if o.pages != nil {
		o.pages.objPrev = p
	}
	o.pages = p
}

// unlinkPage removes p from the resident-page list. System lock held.
func (o *Object) unlinkPage(p *Page) {
	if p.objPrev != nil {
		p.objPrev.objNext = p.objNext
	} else {
		o.pages = p.objNext
	}
	if p.objNext != nil {
		p.objNext.objPrev = p.objPrev
	}
	p.objNext, p.objPrev = nil, nil
}

// residentCount returns the number of resident pages. System lock held.
func (o *Object) residentCount() int {
	n := 0
	for p := o.pages; p != nil; p = p.objNext {
		n++
	}
	return n
}
