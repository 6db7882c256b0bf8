package pager

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/vm"
)

// DefaultPager is the trusted data manager of §6.2.2: it backs memory
// objects created by the kernel — zero-filled vm_allocate memory, shadow
// objects, and pages evicted from errant managers — on a simulated disk.
// Its interface to the kernel is identical to any other external data
// manager ("a new default pager may be debugged as a regular data
// manager"); pages that have never been written are reported unavailable
// so the kernel zero-fills them.
type DefaultPager struct {
	store BlockStore

	mu      sync.Mutex
	free    []int                      // free-block LIFO (O(1) alloc/release)
	blocks  map[*MemoryObject]blockMap // per-object offset -> block
	nextBlk int
	backing int // total occupied blocks (O(1) BackingPages)
}

type blockMap map[uint64]int

// NewDefaultPager builds a default pager over a disk whose block size
// must equal the system page size.
func NewDefaultPager(disk *machine.Disk) *DefaultPager {
	return NewDefaultPagerStore(disk)
}

// NewDefaultPagerStore builds a default pager over any BlockStore — a
// simulated machine.Disk, an iomgr-backed FileVolume, or a FramePool
// buffering either. This is how the default pager becomes a real
// disk-backed pager: hand it a FileVolume (usually under a FramePool)
// and its pages live in a file instead of the Go heap.
func NewDefaultPagerStore(store BlockStore) *DefaultPager {
	return &DefaultPager{
		store:  store,
		blocks: make(map[*MemoryObject]blockMap),
	}
}

// allocBlock hands out a disk block from the free-list (freed blocks
// first, then the high-water mark) — O(1) per page-out, never a scan.
func (dp *DefaultPager) allocBlock() (int, bool) {
	if n := len(dp.free); n > 0 {
		b := dp.free[n-1]
		dp.free = dp.free[:n-1]
		return b, true
	}
	if dp.nextBlk >= dp.store.Blocks() {
		return 0, false // backing store full
	}
	b := dp.nextBlk
	dp.nextBlk++
	return b, true
}

// PagerInit implements Handler (kernel-created objects arrive via
// PagerCreate; an Init can still happen if a task maps the object).
func (dp *DefaultPager) PagerInit(mo *MemoryObject) { dp.PagerCreate(mo) }

// PagerCreate accepts responsibility for a kernel-created memory object.
func (dp *DefaultPager) PagerCreate(mo *MemoryObject) {
	dp.mu.Lock()
	if _, ok := dp.blocks[mo]; !ok {
		dp.blocks[mo] = blockMap{}
	}
	dp.mu.Unlock()
}

// DataRequest serves pages from backing store: the longest prefix of the
// range that has been written out. A page never written is reported
// unavailable, so the kernel zero-fills it.
func (dp *DefaultPager) DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot) {
	mo.ProvideRange(offset, length, uint64(dp.store.BlockSize()), func(off uint64, page []byte) bool {
		dp.mu.Lock()
		blk, ok := dp.blocks[mo][off]
		dp.mu.Unlock()
		if ok {
			dp.store.Read(blk, page)
		}
		return ok
	})
}

// DataWrite stores an evicted page.
func (dp *DefaultPager) DataWrite(mo *MemoryObject, offset uint64, data []byte) {
	dp.mu.Lock()
	bm := dp.blocks[mo]
	if bm == nil {
		bm = blockMap{}
		dp.blocks[mo] = bm
	}
	blk, ok := bm[offset]
	if !ok {
		var fits bool
		blk, fits = dp.allocBlock()
		if !fits {
			dp.mu.Unlock()
			return // backing store exhausted; drop (kernel data loss, as a full paging disk would)
		}
		bm[offset] = blk
		dp.backing++
	}
	dp.mu.Unlock()
	dp.store.Write(blk, data)
}

// DataUnlock never fires: the default pager sets no locks.
func (dp *DefaultPager) DataUnlock(mo *MemoryObject, offset, length uint64, desired vm.Prot) {
	_ = mo.DataLock(offset, length, vm.ProtNone)
}

// PortDeath releases the object's backing blocks.
func (dp *DefaultPager) PortDeath(mo *MemoryObject) {
	dp.mu.Lock()
	for _, blk := range dp.blocks[mo] {
		dp.free = append(dp.free, blk)
	}
	dp.backing -= len(dp.blocks[mo])
	delete(dp.blocks, mo)
	dp.mu.Unlock()
	mo.mgr.Remove(mo)
}

// BackingPages returns how many pages currently occupy backing store
// (an O(1) counter, not a table walk).
func (dp *DefaultPager) BackingPages() int {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.backing
}

// Store returns the pager's backing BlockStore (counter surfacing).
func (dp *DefaultPager) Store() BlockStore { return dp.store }

// Counters reports the backing store's real-I/O counters: iomgr and
// frame-pool traffic for file-backed stores, operation counts for a
// simulated machine.Disk.
func (dp *DefaultPager) Counters() IOCounters {
	switch s := dp.store.(type) {
	case CounterStore:
		return s.Counters()
	case *machine.Disk:
		st := s.Stats()
		return IOCounters{
			Reads:        st.Reads,
			Writes:       st.Writes,
			BytesRead:    st.Reads * int64(s.BlockSize()),
			BytesWritten: st.Writes * int64(s.BlockSize()),
		}
	}
	return IOCounters{}
}
