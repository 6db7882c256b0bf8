package kern

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ipc"
)

// oolRegion is memory travelling out-of-line in a message. At send time
// the data is copy-on-write snapshotted into the sending kernel's transit
// map — no bytes move. At receive time it is COW-mapped into the
// receiver's address space if the receiver is on the same host; across
// hosts (NORMA) it is copied over the interconnect, since there is no
// remote memory access.
type oolRegion struct {
	k     *Kernel
	addr  uint64
	size  uint64
	moved atomic.Bool
}

// Size implements ipc.OutOfLineRegion.
func (r *oolRegion) Size() int { return int(r.size) }

// NewOOLRegion snapshots [addr, addr+size) of the task's address space
// into the kernel transit map and returns the out-of-line handle to place
// in a message section (the "single message may transfer up to the entire
// address space" mechanism of §3.2). The snapshot is copy-on-write: the
// sender may keep writing its copy without affecting the message.
func (k *Kernel) NewOOLRegion(t *Task, addr, size uint64) (ipc.OutOfLineRegion, error) {
	taddr, err := t.Map.CopyRegionTo(k.transit, addr, size)
	if err != nil {
		return nil, err
	}
	return &oolRegion{k: k, addr: taddr, size: k.VM.PageSize() * ((size + k.VM.PageSize() - 1) / k.VM.PageSize())}, nil
}

// MapOOLRegion installs a received out-of-line region into the task's
// address space and returns its address. The transit copy is released; a
// region can be mapped exactly once.
func (k *Kernel) MapOOLRegion(t *Task, region ipc.OutOfLineRegion) (uint64, error) {
	r, ok := region.(*oolRegion)
	if !ok {
		return 0, errForeignRegion(region)
	}
	if r.moved.Swap(true) {
		return 0, errDoubleMap()
	}
	if r.k == k {
		// Same host: map copy-on-write, no data copied.
		addr, err := r.k.transit.CopyRegionTo(t.Map, r.addr, r.size)
		if err != nil {
			return 0, err
		}
		_ = r.k.transit.Deallocate(r.addr, r.size)
		return addr, nil
	}
	// Cross-host: a NORMA interconnect has no remote memory access; the
	// data is read on the sending host and transferred by (charged)
	// network copy — the software copy-on-reference fallback of §7. The
	// staging buffer is a pooled slab: region-sized transfers recycle
	// their buffers instead of leaving a GC-visible wake.
	slab := ipc.AllocSlab(int(r.size))
	defer slab.Release()
	buf := slab.Bytes()
	if err := r.k.transit.ReadBytes(r.addr, buf); err != nil {
		return 0, err
	}
	_ = r.k.transit.Deallocate(r.addr, r.size)
	k.topo.ChargeMessage(r.k.host, k.host, len(buf))
	addr, err := t.Map.Allocate(0, r.size, true)
	if err != nil {
		return 0, err
	}
	if err := t.Map.WriteBytes(addr, buf); err != nil {
		return 0, err
	}
	return addr, nil
}

// Discard implements ipc.OutOfLineRegion: it releases the transit
// snapshot of a region that will not be mapped (the receiver declined
// the data, or the message carrying it was never delivered).
func (r *oolRegion) Discard() {
	if !r.moved.Swap(true) {
		_ = r.k.transit.Deallocate(r.addr, r.size)
	}
}

func errForeignRegion(region ipc.OutOfLineRegion) error {
	return fmt.Errorf("kern: foreign out-of-line region %T", region)
}

func errDoubleMap() error {
	return fmt.Errorf("kern: out-of-line region mapped twice")
}
