package vm

import (
	"time"

	"repro/internal/machine"
)

// This file implements the data-manager-to-kernel half of the external
// memory management interface (Table 3-6). In the real system these are
// messages on the pager request port; the kern package's service loop
// decodes them and calls these entry points.

// DataProvided supplies the kernel with the contents of a region of a
// memory object (pager_data_provided), usually in answer to a
// DataRequest. lock is the initial lock value applied to the pages (the
// race-avoidance parameter of §3.4.1). The kernel handles only integral
// multiples of the page size: a partial trailing page is discarded, as
// the paper specifies. Offsets must be page aligned.
//
// Data for pages nobody asked for is accepted too ("advanced data
// managers may provide more data than requested").
//
// This is the copy path: each page is copied into a frame. Pages that
// arrive in the frame grant a request lent are already in their frames
// (GrantProvided).
func (s *System) DataProvided(obj *Object, offset uint64, data []byte, lock Prot) {
	ps := s.PageSize()
	if offset%ps != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for uint64(len(data)) >= ps {
		off := offset
		chunk := data[:ps]
		offset += ps
		data = data[ps:]
		if off >= obj.size || obj.destroyed {
			continue
		}
		p := s.hash.lookup(obj, off)
		switch {
		case p == nil:
			// Nobody is waiting for this page, but until it has a frame
			// it is in transition like one that was asked for:
			// allocFrameLocked may drop the lock, and a fault that found
			// the page unmarked would map the frame it does not have.
			p = s.pageInsert(obj, off)
			p.busy, p.absent = true, true
		case p.absent:
			// Expected: the fault handler is waiting on this page.
		default:
			// Already cached and valid: the kernel keeps its copy.
			continue
		}
		if !s.frameAbsentLocked(p) {
			continue
		}
		copy(s.frames.Bytes(p.frame), chunk)
		s.met.PageinBytesCopied.Add(ps)
		s.installLocked(p, lock)
		s.chargeCopyLocked(int(ps))
	}
	s.cond.Broadcast()
}

// installLocked makes the page whose data is now in its frame valid and
// resident, under the manager's initial lock. System lock held.
func (s *System) installLocked(p *Page, lock Prot) {
	p.busy = false
	p.absent = false
	p.dirty = false
	p.lock = lock
	p.pageError = nil
	s.activateLocked(p)
	s.stats.Pageins++
}

// frameAbsentLocked gives the absent page p the frame its data goes into.
// allocFrameLocked may drop the lock, so p can be settled meanwhile
// without this data — filled by another answer or by its fault's timeout,
// or failed and freed by its faulter; frameAbsentLocked then reports
// false and p is left alone.
func (s *System) frameAbsentLocked(p *Page) bool {
	gen := p.gen
	f := s.allocFrameLocked(false)
	if p.gen != gen || !p.absent {
		s.frames.Free(f)
		return false
	}
	s.assignFrameLocked(p, f)
	return true
}

// DataUnavailable notifies the kernel that no data exists for a region of
// a memory object (pager_data_unavailable): every page of it that a fault
// is waiting for is zero-filled. The manager vouches for each page it
// names — a page it does hold, named here while another fault waits for
// it, reads as zeroes.
func (s *System) DataUnavailable(obj *Object, offset, size uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zeroFillLocked(obj, offset, size, nil)
}

// zeroFillLocked zero-fills every page of [offset, offset+size) that a
// fault is waiting for, in the frame g lent for it if g covers it; a
// grant starts at offset, which is page aligned. System lock held.
func (s *System) zeroFillLocked(obj *Object, offset, size uint64, g *FrameGrant) {
	ps := s.PageSize()
	offset = s.trunc(offset)
	end := s.round(offset + size)
	for off := offset; off < end; off += ps {
		p := s.hash.lookup(obj, off)
		if p == nil || !p.absent {
			continue
		}
		if i := (off - offset) / ps; g != nil && i < uint64(len(g.frames)) {
			s.useLentLocked(p, g, int(i))
		} else if !s.frameAbsentLocked(p) {
			continue
		}
		s.frames.Zero(p.frame)
		p.busy = false
		p.absent = false
		p.lock = ProtNone
		s.activateLocked(p)
		s.stats.ZeroFills++
	}
	s.cond.Broadcast()
}

// LockRequest restricts cache access to the specified data
// (pager_data_lock): lock names the kinds of access that must be
// PREVENTED. Existing hardware mappings are reduced accordingly. Threads
// waiting in DataUnlock faults are woken to re-evaluate.
func (s *System) LockRequest(obj *Object, offset, size uint64, lock Prot) {
	ps := s.PageSize()
	offset = s.trunc(offset)
	end := s.round(offset + size)
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := offset; off < end; off += ps {
		p := s.hash.lookup(obj, off)
		if p == nil || p.absent {
			continue
		}
		p.lock = lock
		if p.frame != machine.InvalidFrame {
			s.pmapProtectAll(p.frame, ProtAll&^lock)
		}
	}
	s.cond.Broadcast()
}

// FlushRequest forces cached data to be invalidated (pager_flush_request),
// writing modifications back to the memory object first. It returns after
// the write-backs have been handed to the manager, reporting how many
// pages were written — the completion information consistency protocols
// need (the later Mach 3 interface made this an explicit
// memory_object_lock_completed message).
func (s *System) FlushRequest(obj *Object, offset, size uint64) int {
	return s.flushRange(obj, offset, size, true)
}

// CleanRequest forces cached data to be written back to the memory object
// (pager_clean_request) but lets the kernel keep using the cached copy.
// Returns the number of pages written.
func (s *System) CleanRequest(obj *Object, offset, size uint64) int {
	return s.flushRange(obj, offset, size, false)
}

func (s *System) flushRange(obj *Object, offset, size uint64, invalidate bool) int {
	ps := s.PageSize()
	offset = s.trunc(offset)
	end := s.round(offset + size)
	type wb struct {
		off  uint64
		data []byte
	}
	var writes []wb
	s.mu.Lock()
	for off := offset; off < end; off += ps {
	retry:
		p := s.hash.lookup(obj, off)
		if p == nil || p.absent {
			continue
		}
		if p.busy {
			s.cond.Wait()
			goto retry
		}
		if p.dirty {
			data := s.pageBufLocked()
			copy(data, s.frames.Bytes(p.frame))
			writes = append(writes, wb{off, data})
			p.dirty = false
			s.stats.Pageouts++
		}
		if invalidate {
			s.freePageLocked(p)
		}
	}
	pager := obj.pager
	s.mu.Unlock()
	if pager != nil {
		for _, w := range writes {
			pager.DataWrite(obj, w.off, w.data)
		}
	}
	if len(writes) > 0 {
		s.mu.Lock()
		for _, w := range writes {
			s.putPageBufLocked(w.data)
		}
		s.mu.Unlock()
	}
	return len(writes)
}

// SetCanCache tells the kernel whether it may retain cached data from the
// memory object after all references are gone (pager_cache). Revoking
// permission on an unreferenced object terminates it immediately.
func (s *System) SetCanCache(obj *Object, may bool) {
	s.mu.Lock()
	obj.canPersist = may
	terminate := !may && obj.refs <= 0 && !obj.destroyed
	s.mu.Unlock()
	if terminate {
		s.terminateObject(obj)
	}
}

// ObjectFailed marks every in-transit page of the object as failed,
// waking faulting threads with ErrMemoryFailure. The kern layer calls it
// when a memory object port dies while requests are outstanding — the
// memory analogue of communication failure (§6.2.1).
func (s *System) ObjectFailed(obj *Object, err error) {
	if err == nil {
		err = ErrMemoryFailure
	}
	s.mu.Lock()
	for p := obj.pages; p != nil; p = p.objNext {
		if p.absent {
			p.pageError = err
			p.busy = false
		}
	}
	obj.pager = nil
	obj.failErr = err
	s.mu.Unlock()
	s.cond.Broadcast()
}

// chargeCopyLocked charges simulated time for copying n bytes.
func (s *System) chargeCopyLocked(n int) {
	if s.clock == nil {
		return
	}
	s.clock.Advance(time.Duration(n) * s.model.ByteCopy)
}
