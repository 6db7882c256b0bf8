package kern

import (
	"repro/internal/ipc"
	"repro/internal/pager"
	"repro/internal/vm"
)

// This file implements cross-host copy-on-REFERENCE mapping of
// out-of-line regions: instead of eagerly copying a region over the
// interconnect at receive time (MapOOLRegion's NORMA fallback), the
// receiving task maps a memory object served by a transit pager on the
// SENDING kernel, and pages cross the network only when touched. This is
// the §7 observation that "it is possible to implement copy-on-reference
// ... of information in a network environment without explicit hardware
// support" (and the §8.2 machinery, applied to messages).

// corPager serves a transit region's pages on demand from the sending
// kernel.
type corPager struct {
	pager.NopHandler
	k    *Kernel // SENDING kernel (owns the transit region)
	mgr  *pager.Manager
	task *Task
	addr uint64
	size uint64
}

// DataRequest reads the requested pages out of the sender's transit map:
// the part of the range that lies inside the region.
func (cp *corPager) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	mo.ProvideRange(offset, length, cp.k.VM.PageSize(), func(off uint64, page []byte) bool {
		return off < cp.size && cp.k.transit.ReadBytes(cp.addr+off, page) == nil
	})
}

// DataWrite accepts a dirty page evicted by the receiving kernel back
// into the transit region (the sender-side backing store).
func (cp *corPager) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	_ = cp.k.transit.WriteBytes(cp.addr+offset, data)
}

// PortDeath releases the transit region once the receiving kernel is
// done with the object.
func (cp *corPager) PortDeath(mo *pager.MemoryObject) {
	_ = cp.k.transit.Deallocate(cp.addr, cp.size)
	cp.mgr.Stop()
}

// MapOOLRegionCOR maps a received out-of-line region into the task's
// address space copy-on-reference: pages move across the interconnect
// only when the receiver touches them. For same-host regions it behaves
// exactly like MapOOLRegion (COW mapping, no copies). The region can be
// mapped once.
func (k *Kernel) MapOOLRegionCOR(t *Task, region ipc.OutOfLineRegion) (uint64, error) {
	r, ok := region.(*oolRegion)
	if !ok {
		return 0, errForeignRegion(region)
	}
	if r.k == k {
		return k.MapOOLRegion(t, region)
	}
	if r.moved.Swap(true) {
		return 0, errDoubleMap()
	}
	// A transit pager task on the sending kernel serves the pages.
	src := r.k
	mgrTask := src.NewTask()
	cp := &corPager{k: src, task: mgrTask, addr: r.addr, size: r.size}
	cp.mgr = pager.NewManager(mgrTask.Space, cp)
	mo, err := cp.mgr.NewObject(nil)
	if err != nil {
		return 0, err
	}
	go cp.mgr.Run()
	moPort, err := mgrTask.Space.Resolve(mo.Port)
	if err != nil {
		cp.mgr.Stop()
		return 0, err
	}
	obj := k.Cache.Lookup(moPort, r.size)
	addr, err := t.Map.AllocateWithObject(obj, 0, 0, r.size, true, true)
	if err != nil {
		cp.mgr.Stop()
		return 0, err
	}
	return addr, nil
}
