package vm

import (
	"time"

	"repro/internal/machine"
)

// pageoutDaemon is the kernel thread that maintains the free-frame target
// (§5.4). It scans the inactive queue: referenced pages are reactivated,
// clean pages freed, dirty pages written back to their data manager (via
// pager_data_write) and then freed. The active queue refills the inactive
// queue in LRU order.
func (s *System) pageoutDaemon() {
	defer close(s.daemonDone)
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-s.daemonStop:
			return
		case <-s.daemonWake:
		case <-ticker.C:
		}
		s.balance()
	}
}

// pageoutJob carries one dirty page's data to its manager outside the
// system lock.
type pageoutJob struct {
	pager  Pager
	object *Object
	offset uint64
	data   []byte
	page   *Page
}

// balance frees pages until the free target is met or no further progress
// is possible. Each dirty page's contents are copied into a recycled page
// buffer that goes back once its DataWrite has returned.
func (s *System) balance() {
	for {
		jobs := s.jobs[:0]
		var adopt []*Object

		s.mu.Lock()
		short := s.shortfallLocked()
		if short <= 0 {
			s.mu.Unlock()
			return
		}
		// Refill the inactive queue from the LRU end of the active
		// queue, twice the shortfall deep.
		want := 2 * short
		for s.inactive.count < want {
			p := s.active.popHead()
			if p == nil {
				break
			}
			p.referenced = false
			// Dropping to inactive removes the hardware mapping so a
			// reference will be noticed (as clearing the ref bit and
			// catching re-faults would on real hardware).
			if p.frame != machine.InvalidFrame {
				s.pmapRemoveAll(p.frame)
			}
			s.inactive.pushTail(p)
		}
		progress := false
		scan := s.inactive.count
		for i := 0; i < scan && s.shortfallLocked() > 0; i++ {
			p := s.inactive.popHead()
			if p == nil {
				break
			}
			if p.busy || p.wired > 0 {
				s.active.pushTail(p)
				continue
			}
			if p.referenced {
				p.referenced = false
				s.stats.Reactivations++
				s.active.pushTail(p)
				continue
			}
			if p.dirty {
				obj := p.object
				if obj.pager == nil {
					if s.defaultPager == nil {
						// Nowhere to put it; keep it resident.
						s.active.pushTail(p)
						continue
					}
					adopt = append(adopt, obj)
				}
				data := s.pageBufLocked()
				copy(data, s.frames.Bytes(p.frame))
				// The page stays in the VP table, busy, until the
				// write-back message is handed to the manager: a fault
				// meanwhile must wait, so the manager sees the
				// pager_data_write before any pager_data_request for
				// the same page. The frame itself is released now —
				// the data travels in the message.
				p.busy = true
				s.pmapRemoveAll(p.frame)
				delete(s.frame2page, p.frame)
				s.frames.Free(p.frame)
				p.frame = machine.InvalidFrame
				jobs = append(jobs, pageoutJob{obj.pager, obj, p.offset, data, p})
				s.stats.Pageouts++
				progress = true
				s.cond.Broadcast()
				continue
			}
			// Clean page: just release it.
			s.freePageLocked(p)
			progress = true
		}
		s.mu.Unlock()

		// Adopt internal objects into the default pager (pager_create)
		// and deliver the write-backs, all without the system lock.
		for _, obj := range adopt {
			s.adoptDefaultPager(obj)
		}
		for i := range jobs {
			job := &jobs[i]
			pager := job.pager
			if pager == nil {
				s.mu.Lock()
				pager = job.object.pager
				s.mu.Unlock()
			}
			if pager != nil {
				pager.DataWrite(job.object, job.offset, job.data)
			}
			// The manager now owns the data; drop the placeholder so
			// future faults go back to the manager.
			s.mu.Lock()
			job.page.busy = false
			s.freePageLocked(job.page)
			s.putPageBufLocked(job.data)
			s.mu.Unlock()
		}
		clear(jobs) // keep no object, pager or buffer reachable
		s.jobs = jobs[:0]
		if !progress {
			return
		}
	}
}

// adoptDefaultPager hands an internal object to the default pager, the
// paper's pager_create flow: the kernel creates the memory object port
// and passes it to the trusted default pager task.
func (s *System) adoptDefaultPager(obj *Object) {
	s.mu.Lock()
	factory := s.defaultPager
	if obj.pager != nil || factory == nil {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	pager := factory(obj)
	s.mu.Lock()
	if obj.pager == nil {
		obj.pager = pager
	}
	s.mu.Unlock()
}
