package vm

import "time"

// Fault is the Mach page fault handler, "the hub of the Mach virtual
// memory system" (§5.5). It is called when the simulated hardware
// references a page with no valid mapping or with a protection violation,
// and performs the paper's steps: validity and protection lookup in the
// task address map, page lookup in the virtual-to-physical table (asking
// the data manager for absent data), copy-on-write resolution, and
// finally hardware validation via the pmap.
//
// Everything except the pmap update is machine-independent.
//
// Fault is the one-page hardware entry. The load/store path (access,
// Touch) knows how far the task is about to go and enters through fault.
func (m *Map) Fault(addr uint64, desired Prot) error {
	return m.fault(addr, 1, desired)
}

// fault handles a fault at addr taken by an access that continues for
// extent bytes. The extent buys two things and changes nothing else: an
// absent page is requested from its pager together with the absent pages
// that follow it (faultPageIn), and a read fault also validates the
// resident pages that follow it (the end of faultOnce). An extent within
// one page is exactly the hardware fault.
func (m *Map) fault(addr, extent uint64, desired Prot) error {
	if desired == ProtNone {
		desired = ProtRead
	}
	for {
		retry, err := m.faultOnce(addr, extent, desired)
		if err != nil {
			return err
		}
		if !retry {
			return nil
		}
	}
}

// resolution is the address-map half of a fault: where the data lives.
type resolution struct {
	firstObj  *Object
	firstOff  uint64
	entryProt Prot
	readOnly  bool // install read-only even if entry allows writes (COW)
	// pages is how many pages, the faulted one included, remain in the
	// entry: no request and no translation may reach past it.
	pages uint64
}

// resolve performs fault step 1: validity and protection, yielding the
// first object of the shadow chain. For write faults on copy-on-write
// entries it interposes the shadow object.
func (m *Map) resolve(addr uint64, desired Prot) (resolution, error) {
	pageAddr := m.sys.trunc(addr)
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.lookupEntry(addr)
	if e == nil || e.reserved() {
		return resolution{}, ErrInvalidAddress
	}
	if !e.prot.Allows(desired) {
		return resolution{}, ErrProtection
	}
	oe := e
	var sm *shareMap
	if e.sharing != nil {
		sm = e.sharing
		sm.mu.Lock()
		defer sm.mu.Unlock()
		oe = nil
		for _, ie := range sm.entries {
			if ie.start <= addr && addr < ie.end {
				oe = ie
				break
			}
		}
		if oe == nil {
			return resolution{}, ErrInvalidAddress
		}
	}
	if desired&ProtWrite != 0 && oe.needsCopy {
		// Interpose a shadow object: the entry's reference to the
		// original moves into the shadow chain.
		oe.object = m.sys.shadowObject(oe.object, oe.object.size)
		oe.needsCopy = false
	}
	end := e.end
	if oe.end < end {
		end = oe.end
	}
	return resolution{
		firstObj:  oe.object,
		firstOff:  oe.offset + (pageAddr - oe.start),
		entryProt: e.prot,
		readOnly:  oe.needsCopy,
		pages:     (end - pageAddr) / m.sys.PageSize(),
	}, nil
}

// faultOnce runs one attempt of the fault pipeline. retry is true when
// the attempt blocked (busy page, pager wait, unlock wait) and the whole
// fault must be re-driven from the address map.
func (m *Map) faultOnce(addr, extent uint64, desired Prot) (retry bool, err error) {
	s := m.sys
	ps := s.PageSize()
	pageAddr := s.trunc(addr)
	vpage := pageAddr / ps

	res, err := m.resolve(addr, desired)
	if err != nil {
		return false, err
	}
	// The pages the access covers from here, clipped to the entry.
	pages := (addr-pageAddr+extent-1)/ps + 1
	if pages > res.pages {
		pages = res.pages
	}

	s.mu.Lock()
	s.stats.Faults++

	// Step 2: page lookup, walking the shadow chain.
	p, obj, off := s.chainLookupLocked(res.firstObj, res.firstOff)
	switch {
	case p != nil && p.pageError != nil:
		ferr := p.pageError
		s.freePageLocked(p)
		s.mu.Unlock()
		return false, ferr
	case p != nil && p.busy:
		s.cond.Wait()
		s.mu.Unlock()
		return true, nil
	case p != nil:
	case obj.failErr != nil:
		ferr := obj.failErr
		s.mu.Unlock()
		return false, ferr
	case obj.pager != nil && !obj.destroyed:
		return true, m.faultPageIn(res, obj, off, pages, desired)
	default:
		// No object in the chain has the data and the bottom has no
		// pager: zero-fill on demand, at the first object.
		obj, off = res.firstObj, res.firstOff
		p = s.pageInsert(obj, off)
		p.busy = true
		f := s.allocFrameLocked(false)
		s.assignFrameLocked(p, f)
		s.frames.Zero(f)
		p.busy = false
		s.stats.ZeroFills++
		s.chargeCopyLocked(int(ps))
		s.cond.Broadcast()
	}

	// Step: data-manager lock check (pager_data_unlock round).
	needed := desired
	if obj != res.firstObj {
		needed = ProtRead // the ancestor page is only read
	}
	if p.lock&needed != 0 {
		return true, m.faultUnlock(obj, off, p, needed)
	}

	// Step 3: copy-on-write resolution — the page lives in an ancestor
	// and the task wants to write: copy it into the first object. The
	// ancestor page stays busy while allocFrameLocked may drop the lock,
	// so that the pageout daemon cannot free it under the copy.
	if obj != res.firstObj && desired&ProtWrite != 0 {
		np := s.pageInsert(res.firstObj, res.firstOff)
		np.busy = true
		p.busy = true
		f := s.allocFrameLocked(false)
		s.assignFrameLocked(np, f)
		copy(s.frames.Bytes(f), s.frames.Bytes(p.frame))
		p.busy = false
		np.busy = false
		np.dirty = true
		s.stats.CowFaults++
		s.chargeCopyLocked(int(ps))
		s.cond.Broadcast()
		p = np
		obj = res.firstObj
	}

	// Step 4/5: reference bits and hardware validation.
	if desired&ProtWrite != 0 {
		p.dirty = true
	}
	m.validateLocked(res, vpage, obj, p)
	if desired&ProtWrite == 0 {
		// A read fault also validates the pages that follow it within
		// the access and the entry, each exactly as its own read fault
		// would, up to the first one a fault would have to wait or do
		// work for: cached nowhere, busy, failed, or read-locked by its
		// manager. Write faults stay per page, because each one decides
		// a copy.
		for i := uint64(1); i < pages; i++ {
			p, obj, _ := s.chainLookupLocked(res.firstObj, res.firstOff+i*ps)
			if p == nil || p.busy || p.pageError != nil || p.lock&ProtRead != 0 {
				break
			}
			m.validateLocked(res, vpage+i, obj, p)
		}
	}
	s.mu.Unlock()
	return false, nil
}

// chainLookupLocked is fault step 2, the page lookup down the shadow
// chain from (obj, off): it returns the cached page and the object that
// holds it, or no page and the object the search ends at — one that has
// failed, one whose pager must be asked, or the bottom of the chain.
// System lock held.
func (s *System) chainLookupLocked(obj *Object, off uint64) (*Page, *Object, uint64) {
	for {
		if p := s.pageLookup(obj, off); p != nil {
			return p, obj, off
		}
		if obj.failErr != nil || (obj.pager != nil && !obj.destroyed) || obj.shadow == nil {
			return nil, obj, off
		}
		off += obj.shadowOffset
		obj = obj.shadow
	}
}

// validateLocked is fault steps 4 and 5 for the page p found at obj: the
// reference bit, and the hardware mapping of vpage with all the access the
// entry allows and the page can bear. A page of an ancestor object, or
// behind a copy-on-write entry, goes in read-only, so that a later write
// faults and copies; what the manager has locked is withheld. System lock
// held.
func (m *Map) validateLocked(res resolution, vpage uint64, obj *Object, p *Page) {
	prot := res.entryProt &^ p.lock
	if obj != res.firstObj || res.readOnly {
		prot &^= ProtWrite
	}
	p.referenced = true
	m.sys.activateLocked(p)
	m.pmap.enter(vpage, p.frame, prot)
}

// pageInCluster bounds one pager_data_request, in pages.
const pageInCluster = 16

// pageInRun sizes the request for the page absent at (obj, off), where
// obj was reached down the shadow chain from (first, firstOff): that page
// plus the pages after it, up to max, that are cached nowhere on that
// path — a page some object above obj holds will never be read from obj.
// The run ends at the object's end and at the cluster, which is never
// more than a quarter of physical memory, so that what a request brings
// in cannot push out the page the fault waits for. System lock held.
func (s *System) pageInRun(first *Object, firstOff uint64, obj *Object, off, max uint64) uint64 {
	ps := s.PageSize()
	if max > pageInCluster {
		max = pageInCluster
	}
	if quarter := uint64(s.frames.TotalFrames() / 4); max > quarter {
		max = quarter
	}
	n := uint64(1)
	for ; n < max && off+n*ps < obj.size; n++ {
		for o, at := first, firstOff+n*ps; ; o, at = o.shadow, at+o.shadowOffset {
			if s.hash.lookup(o, at) != nil {
				return n
			}
			if o == obj {
				break
			}
		}
	}
	return n
}

// faultPageIn issues pager_data_request for an absent page and waits for
// pager_data_provided (or pager_data_unavailable), honouring the memory
// failure policy of §6.2.1. The request names the run of absent pages the
// access is about to touch, but only the faulted page is marked absent
// and waited for: the rest of the range is a hint, and whatever part of
// it the manager provides arrives as data nobody is waiting on. The
// request lends the run's frames when memory allows (lendLocked), so a
// manager on this host can read the pages straight into them. Called
// with the system lock held; returns with it released.
func (m *Map) faultPageIn(res resolution, obj *Object, off, pages uint64, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	p := s.pageInsert(obj, off)
	p.busy, p.absent = true, true
	gen := p.gen
	n := s.pageInRun(res.firstObj, res.firstOff, obj, off, pages)
	grant := s.lendLocked(obj, off, int(n))
	pager := obj.pager
	s.mu.Unlock()

	pager.DataRequest(obj, off, n*ps, desired, grant)

	var deadline time.Time
	s.mu.Lock()
	if s.fault.Timeout > 0 {
		deadline = time.Now().Add(s.fault.Timeout)
	}
	// A page that failed can be freed by another fault meanwhile, and its
	// structure recycled: p is ours only while its generation holds.
	for p.gen == gen && p.absent && p.pageError == nil {
		if s.waitCondLocked(deadline) {
			continue
		}
		// Timed out: the data manager did not return data. Abort the
		// memory request or substitute zero-filled memory.
		// A manager that lets a fault time out may never answer, and
		// would keep whatever frames it was lent: lend it no more.
		obj.noLend = true
		if s.fault.ZeroFillOnTimeout {
			if s.frameAbsentLocked(p) {
				s.frames.Zero(p.frame)
				p.busy, p.absent = false, false
				p.lock = ProtNone
				s.stats.ZeroFills++
				s.activateLocked(p)
				s.cond.Broadcast()
			}
			break
		}
		p.pageError = ErrMemoryFailure
		p.busy = false
		s.cond.Broadcast()
		break
	}
	s.mu.Unlock()
	return nil
}

// faultUnlock issues pager_data_unlock and waits for the manager to
// change the page's lock (or flush the page). Called with the system
// lock held; returns with it released.
func (m *Map) faultUnlock(obj *Object, off uint64, p *Page, needed Prot) error {
	s := m.sys
	ps := s.PageSize()
	s.stats.UnlockWaits++
	gen := p.gen
	pager := obj.pager
	s.mu.Unlock()
	if pager != nil {
		pager.DataUnlock(obj, off, ps, needed)
	}

	var deadline time.Time
	s.mu.Lock()
	if s.fault.Timeout > 0 {
		deadline = time.Now().Add(s.fault.Timeout)
	}
	// The manager may flush the page rather than unlock it, and a new
	// fault may then cache the same offset in the recycled structure:
	// p is ours only while its generation holds.
	for p.gen == gen && p.lock&needed != 0 && p.pageError == nil {
		if !s.waitCondLocked(deadline) {
			s.mu.Unlock()
			return ErrMemoryFailure
		}
	}
	s.mu.Unlock()
	return nil
}
