package vm

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// FrameGrant is a run of free frames the kernel lends a data manager with
// one pager_data_request: the frames the requested pages will occupy. A
// manager on the kernel's own host reads each page straight into its
// frame and returns the grant with pager_data_provided (or, when it holds
// nothing for the first page, with pager_data_unavailable), so the
// message moves memory rather than bytes — the data in the message is the
// memory it fills. A manager that answers some other way gives the frames
// back unused.
//
// A grant is settled exactly once, by whichever comes first: the kernel
// installs its frames (GrantProvided), uses them for the zero-fill
// (GrantUnavailable), or it is discarded (Discard) — by the manager that
// did not use it, or by the IPC layer when the message carrying it is
// never delivered. Settling frees every frame that did not become a page
// and recycles the grant, so whoever hands a grant on must not touch it
// again.
//
// FrameGrant implements ipc.OutOfLineRegion.
type FrameGrant struct {
	sys    *System
	obj    *Object
	offset uint64
	frames []machine.Frame
	// filled is the length of the prefix the manager has read in.
	filled uint64
	// settled is set by the one call that settles the grant.
	settled atomic.Bool
}

// A FrameBorrower is a Pager whose data manager can read pages into the
// frames a request lends. The kernel lends frames only to a pager that
// implements it and reports true — a manager on another host cannot fill
// them. BorrowsFrames is called with the system lock held, so it must not
// block or call back into the VM system.
type FrameBorrower interface {
	BorrowsFrames() bool
}

var grantPool = sync.Pool{New: func() any { return new(FrameGrant) }}

// lendLocked lends the frames for the n pages from (obj, off) — the run
// a fault is about to request — or returns nil, and the request goes by
// copy. It never waits, so the faulted page cannot change under it.
//
// What a manager can hold is bounded, since a lent frame cannot be paged
// out: an object has at most one grant outstanding, and none after one of
// its faults timed out (its manager may never answer); at most a quarter
// of physical memory is ever on loan; and a grant never dips into the
// reserved pool. The pageout daemon counts lent frames as free until they
// are installed (shortfallLocked), as the frames were free before grants,
// when they were taken only once the data arrived. System lock held.
func (s *System) lendLocked(obj *Object, off uint64, n int) *FrameGrant {
	if obj.lending || obj.noLend {
		return nil
	}
	if b, ok := obj.pager.(FrameBorrower); !ok || !b.BorrowsFrames() {
		return nil
	}
	if s.frames.FreeFrames()-n < s.reserved || s.lent+n > s.frames.TotalFrames()/4 {
		return nil
	}
	g := grantPool.Get().(*FrameGrant)
	g.sys, g.obj, g.offset, g.filled = s, obj, off, 0
	g.settled.Store(false)
	for i := 0; i < n; i++ {
		f, _ := s.frames.Alloc() // the free count was read under the lock
		g.frames = append(g.frames, f)
	}
	obj.lending = true
	s.lent += n
	s.met.FramesLent.Add(int64(n))
	return g
}

// Size implements ipc.OutOfLineRegion: the bytes the grant's frames hold.
func (g *FrameGrant) Size() int { return len(g.frames) * int(g.sys.PageSize()) }

// WireSize is what the interconnect charges for the grant: the bytes the
// manager filled, which the 1987 kernel copied inline. The request that
// offers the grant is charged nothing for it, and the answer that returns
// it as much as the copy it replaces, so the simulated machine's costs
// are those of the copy path.
func (g *FrameGrant) WireSize() int { return int(g.filled) }

// Host is the host of the kernel that lent the frames. Only a manager on
// that host can read into them.
func (g *FrameGrant) Host() machine.HostID { return g.sys.host }

// Offset is the object offset of the grant's first page.
func (g *FrameGrant) Offset() uint64 { return g.offset }

// Frames is the number of frames lent, one per page of the request.
func (g *FrameGrant) Frames() int { return len(g.frames) }

// Frame returns the bytes of the i-th frame, the page at Offset() + i
// pages. The holder of the grant may write them freely: a lent frame
// belongs to no page and no address space until it is installed.
func (g *FrameGrant) Frame(i int) []byte { return g.sys.frames.Bytes(g.frames[i]) }

// Fill records that the first n bytes of the run have been read into the
// frames; n is a whole number of pages. Only those pages are installed.
func (g *FrameGrant) Fill(n uint64) { g.filled = n }

// Discard implements ipc.OutOfLineRegion: it gives every frame back.
func (g *FrameGrant) Discard() {
	if g.settled.Swap(true) {
		return
	}
	s := g.sys
	s.mu.Lock()
	s.returnGrantLocked(g)
	s.mu.Unlock()
}

// takeGrant settles g for the kernel's use if it is this system's grant
// for (obj, offset); any other grant is discarded.
func (s *System) takeGrant(g *FrameGrant, obj *Object, offset uint64) bool {
	if g.sys != s || g.obj != obj || g.offset != offset {
		g.Discard()
		return false
	}
	return !g.settled.Swap(true)
}

// returnGrantLocked frees the frames the kernel did not take from a
// settled grant and recycles it. System lock held.
func (s *System) returnGrantLocked(g *FrameGrant) {
	for _, f := range g.frames {
		if f != machine.InvalidFrame {
			s.frames.Free(f)
			s.lent--
		}
	}
	s.met.FramesLent.Add(-int64(len(g.frames)))
	g.obj.lending = false
	s.cond.Broadcast()
	g.sys, g.obj = nil, nil
	g.frames = g.frames[:0]
	grantPool.Put(g)
}

// useLentLocked gives the absent or new page p the i-th frame of g. The
// frame leaves the loan, so the pageout daemon is woken exactly as
// allocFrameLocked would wake it had the frame been taken now. System
// lock held.
func (s *System) useLentLocked(p *Page, g *FrameGrant, i int) {
	s.assignFrameLocked(p, g.frames[i])
	g.frames[i] = machine.InvalidFrame
	s.lent--
	if s.shortfallLocked() > 0 {
		s.wakeDaemon()
	}
}

// GrantProvided is pager_data_provided for pages that arrive in a frame
// grant: the filled prefix of the grant is installed exactly as
// DataProvided installs copied data — skipped if the object is destroyed,
// the offset is past its end, or the page is already cached (settled
// meanwhile by another answer or by its fault's timeout) — without a host
// copy. The simulated machine is still charged the copy into the frame.
// Frames not installed are freed.
func (s *System) GrantProvided(obj *Object, offset uint64, g *FrameGrant, lock Prot) {
	if !s.takeGrant(g, obj, offset) {
		return
	}
	ps := s.PageSize()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; uint64(i+1)*ps <= g.filled && i < len(g.frames); i++ {
		off := offset + uint64(i)*ps
		if off >= obj.size || obj.destroyed {
			continue
		}
		p := s.hash.lookup(obj, off)
		switch {
		case p == nil:
			// Nobody is waiting for this page. Its frame is ready, so
			// it goes in whole, never in transition.
			p = s.pageInsert(obj, off)
		case p.absent:
			// Expected: the fault handler is waiting on this page.
		default:
			// Already cached and valid: the kernel keeps its copy.
			continue
		}
		s.useLentLocked(p, g, i)
		s.installLocked(p, lock)
		s.chargeCopyLocked(int(ps))
	}
	s.returnGrantLocked(g)
}

// GrantUnavailable is pager_data_unavailable answered with the grant the
// request carried: it zero-fills exactly what DataUnavailable does, using
// the grant's frames for the pages they cover, and frees the rest.
func (s *System) GrantUnavailable(obj *Object, offset, size uint64, g *FrameGrant) {
	if !s.takeGrant(g, obj, offset) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zeroFillLocked(obj, offset, size, g)
	s.returnGrantLocked(g)
}
