package vm

import "repro/internal/machine"

// Pmap is the hardware physical map module: the only machine-dependent
// component of the original VM system (§5.5 "hardware validation"). Ours
// simulates an MMU: a per-address-space table of virtual-page to
// (frame, protection) translations. Accesses that miss the pmap, or that
// exceed the installed protection, take the machine-independent fault
// path above.
//
// The System records a PV ("physical-to-virtual") entry for every
// translation so a physical page can be unmapped from all address spaces
// when it is flushed, evicted, or locked by its data manager. The PV
// table is indexed by frame and keeps each list's capacity when it
// empties, so mapping a frame again allocates nothing.
//
// All Pmap state is guarded by the owning System's lock.
type Pmap struct {
	sys      *System
	entries  map[uint64]pmapEntry // keyed by virtual page number
	enters   int64
	removals int64
}

type pmapEntry struct {
	frame machine.Frame
	prot  Prot
}

type pvRef struct {
	pmap  *Pmap
	vpage uint64
}

func (s *System) newPmap() *Pmap {
	return &Pmap{sys: s, entries: make(map[uint64]pmapEntry)}
}

// enter installs or replaces a translation. System lock held.
func (pm *Pmap) enter(vpage uint64, frame machine.Frame, prot Prot) {
	if old, ok := pm.entries[vpage]; ok {
		if old.frame == frame {
			pm.entries[vpage] = pmapEntry{frame, prot}
			return
		}
		pm.sys.pvRemove(old.frame, pm, vpage)
	}
	pm.entries[vpage] = pmapEntry{frame, prot}
	pm.sys.pv[frame] = append(pm.sys.pv[frame], pvRef{pm, vpage})
	pm.enters++
}

// remove drops translations for virtual pages in [first, last]. System
// lock held. Sparse tables are walked by entry when the range is wide.
func (pm *Pmap) remove(first, last uint64) {
	if last-first+1 > uint64(len(pm.entries)) {
		for v, e := range pm.entries {
			if v >= first && v <= last {
				pm.sys.pvRemove(e.frame, pm, v)
				delete(pm.entries, v)
				pm.removals++
			}
		}
		return
	}
	for v := first; v <= last; v++ {
		if e, ok := pm.entries[v]; ok {
			pm.sys.pvRemove(e.frame, pm, v)
			delete(pm.entries, v)
			pm.removals++
		}
	}
}

// protect reduces the protection of translations in [first, last] to at
// most prot, removing them entirely if prot is ProtNone. System lock
// held. Sparse tables are walked by entry when the range is wide.
func (pm *Pmap) protect(first, last uint64, prot Prot) {
	if last-first+1 > uint64(len(pm.entries)) {
		var hit []uint64
		for v := range pm.entries {
			if v >= first && v <= last {
				hit = append(hit, v)
			}
		}
		for _, v := range hit {
			pm.protectOne(v, prot)
		}
		return
	}
	for v := first; v <= last; v++ {
		pm.protectOne(v, prot)
	}
}

func (pm *Pmap) protectOne(v uint64, prot Prot) {
	e, ok := pm.entries[v]
	if !ok {
		return
	}
	np := e.prot & prot
	if np == ProtNone {
		pm.sys.pvRemove(e.frame, pm, v)
		delete(pm.entries, v)
		pm.removals++
		return
	}
	pm.entries[v] = pmapEntry{e.frame, np}
}

// translate returns the frame for vpage if the installed protection
// permits the desired access. System lock held.
func (pm *Pmap) translate(vpage uint64, desired Prot) (machine.Frame, bool) {
	e, ok := pm.entries[vpage]
	if !ok || !e.prot.Allows(desired) {
		return machine.InvalidFrame, false
	}
	return e.frame, true
}

// pvRemove deletes one PV entry for (frame, pmap, vpage). System lock
// held.
func (s *System) pvRemove(frame machine.Frame, pm *Pmap, vpage uint64) {
	refs := s.pv[frame]
	for i := range refs {
		if refs[i].pmap == pm && refs[i].vpage == vpage {
			s.pv[frame] = pvDelete(refs, i)
			return
		}
	}
}

// pvDelete removes refs[i], moving the last reference into its slot. The
// vacated slot is cleared: the list keeps its capacity, and a kept slot
// must not pin its Pmap.
func pvDelete(refs []pvRef, i int) []pvRef {
	last := len(refs) - 1
	refs[i] = refs[last]
	refs[last] = pvRef{}
	return refs[:last]
}

// pmapRemoveAll unmaps a physical frame from every address space, the
// hardware shootdown used before flushing or evicting a page. System
// lock held.
func (s *System) pmapRemoveAll(frame machine.Frame) {
	refs := s.pv[frame]
	for _, ref := range refs {
		delete(ref.pmap.entries, ref.vpage)
		ref.pmap.removals++
	}
	clear(refs)
	s.pv[frame] = refs[:0]
}

// pmapProtectAll reduces the protection of every mapping of a frame, used
// when a data manager locks cached data (pager_data_lock). System lock
// held.
func (s *System) pmapProtectAll(frame machine.Frame, prot Prot) {
	refs := s.pv[frame]
	if prot == ProtNone {
		s.pmapRemoveAll(frame)
		return
	}
	for i := 0; i < len(refs); i++ {
		ref := refs[i]
		e := ref.pmap.entries[ref.vpage]
		np := e.prot & prot
		if np == ProtNone {
			delete(ref.pmap.entries, ref.vpage)
			ref.pmap.removals++
			refs = pvDelete(refs, i)
			i--
			continue
		}
		ref.pmap.entries[ref.vpage] = pmapEntry{e.frame, np}
	}
	s.pv[frame] = refs
}
