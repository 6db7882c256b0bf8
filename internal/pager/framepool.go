package pager

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ipc"
	"repro/internal/obs"
)

// FramePool is a frame-table buffer pool between the pager stack and a
// BlockStore: a fixed set of page frames (slab-backed, the ipc
// size-class allocator) caching device blocks. Faults hit resident
// frames without touching the device; misses claim a free frame or
// evict one by clock rotation, writing back dirty victims first. It
// implements BlockStore itself, so a DefaultPager (or the Camelot data
// path) layers over it unchanged — that is what turns "working set
// capped by RAM" into "working set capped by the device": a dataset
// many times the frame count stays fully usable through fault+evict
// cycles.
//
// Concurrency: an index lock covers the frame table and clock hand;
// each frame carries a pin count (pinned frames are never evicted) and
// a short-term content lock, so many faulters make progress in
// parallel and device I/O happens outside the index lock.
type FramePool struct {
	store BlockStore

	// BeforeWriteback, when set, runs before a dirty frame's block is
	// written back to the store (inside the eviction path). The WAL
	// discipline hangs off this hook: Camelot asserts the log is
	// durable past the page's LSN before the page hits disk.
	BeforeWriteback func(block int)

	mu     sync.Mutex
	index  map[int]*frame // block -> resident/loading frame
	frames []*frame
	free   []*frame
	hand   int

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	writebacks atomic.Int64

	met *obs.PagerMetrics
}

// frame is one pool slot. Reuse is guarded by the pool lock plus the
// pin protocol (evictable only at zero pins, not loading); buf and
// dirty are touched only by pinned users, serialized by mu.
type frame struct {
	mu      sync.Mutex
	slab    *ipc.Slab
	buf     []byte
	block   int
	dirty   bool
	ref     bool // clock reference bit (pool lock)
	pins    int  // pool lock
	loading bool // fault I/O in flight (pool lock)
	// loaded is broadcast when loading ends; its lock is the pool lock.
	loaded sync.Cond
}

// NewFramePool builds a pool of nframes frames over store.
func NewFramePool(store BlockStore, nframes int) *FramePool {
	if nframes <= 0 {
		panic(fmt.Sprintf("pager: invalid frame count %d", nframes))
	}
	fp := &FramePool{
		store: store,
		index: make(map[int]*frame, nframes),
		met:   obs.Pager(),
	}
	bs := store.BlockSize()
	for i := 0; i < nframes; i++ {
		slab := ipc.AllocSlab(bs)
		f := &frame{slab: slab, buf: slab.Bytes(), block: -1}
		f.loaded.L = &fp.mu
		fp.frames = append(fp.frames, f)
		fp.free = append(fp.free, f)
	}
	return fp
}

// BlockSize implements BlockStore.
func (fp *FramePool) BlockSize() int { return fp.store.BlockSize() }

// Blocks implements BlockStore.
func (fp *FramePool) Blocks() int { return fp.store.Blocks() }

// Frames returns the pool size.
func (fp *FramePool) Frames() int { return len(fp.frames) }

// Read implements BlockStore: a warm fault copies straight out of the
// frame, a cold fault pulls the block in (evicting if needed).
func (fp *FramePool) Read(block int, dst []byte) {
	f := fp.frameFor(block, true)
	f.mu.Lock()
	copy(dst[:len(f.buf)], f.buf)
	f.mu.Unlock()
	fp.unpin(f)
}

// Write implements BlockStore: the block is overwritten in its frame
// and marked dirty; the device sees it at eviction or Flush.
func (fp *FramePool) Write(block int, src []byte) {
	f := fp.frameFor(block, false)
	f.mu.Lock()
	copy(f.buf, src[:len(f.buf)])
	f.dirty = true
	f.mu.Unlock()
	fp.unpin(f)
}

// frameFor returns the block's frame, pinned and resident. fill=false
// skips the device read for a full-block overwrite (the frame is
// zeroed instead so a racing reader can never see another block's
// data).
func (fp *FramePool) frameFor(block int, fill bool) *frame {
	for {
		fp.mu.Lock()
		if f := fp.index[block]; f != nil {
			f.pins++
			f.ref = true
			if !f.loading {
				fp.mu.Unlock()
				fp.hits.Add(1)
				fp.met.WarmFaults.Inc()
				return f
			}
			// Another faulter is mid-I/O on this block; our pin keeps
			// the frame ours once it lands.
			for f.loading {
				f.loaded.Wait()
			}
			fp.mu.Unlock()
			return f
		}
		var f *frame
		if n := len(fp.free); n > 0 {
			f = fp.free[n-1]
			fp.free = fp.free[:n-1]
		} else if f = fp.evictLocked(); f == nil {
			// Every frame pinned or loading: more concurrent faulters
			// than frames. Back off and retry.
			fp.mu.Unlock()
			runtime.Gosched()
			continue
		}
		fp.misses.Add(1)
		fp.met.ColdFaults.Inc()
		oldBlock, oldDirty := f.block, f.dirty
		f.block, f.dirty = block, false
		f.pins = 1
		f.ref = true
		f.loading = true
		fp.index[block] = f
		fp.mu.Unlock()

		// Device I/O outside the index lock: other blocks keep faulting.
		if oldDirty {
			if hook := fp.BeforeWriteback; hook != nil {
				hook(oldBlock)
			}
			fp.store.Write(oldBlock, f.buf)
			fp.writebacks.Add(1)
			fp.met.Writebacks.Inc()
		}
		if fill {
			fp.store.Read(block, f.buf)
		} else {
			for i := range f.buf {
				f.buf[i] = 0
			}
		}
		fp.mu.Lock()
		f.loading = false
		f.loaded.Broadcast()
		fp.mu.Unlock()
		return f
	}
}

// evictLocked picks a victim by clock rotation: skip pinned and
// loading frames, clear reference bits on the first lap, take the
// first unreferenced frame. Returns nil when everything is busy.
func (fp *FramePool) evictLocked() *frame {
	for i := 0; i < 2*len(fp.frames); i++ {
		f := fp.frames[fp.hand]
		fp.hand = (fp.hand + 1) % len(fp.frames)
		if f.pins > 0 || f.loading {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		delete(fp.index, f.block)
		fp.evictions.Add(1)
		fp.met.Evictions.Inc()
		return f
	}
	return nil
}

func (fp *FramePool) unpin(f *frame) {
	fp.mu.Lock()
	f.pins--
	fp.mu.Unlock()
}

// Flush writes every dirty frame back to the store (the frames stay
// resident and clean). Pager shutdown and durability points use it.
func (fp *FramePool) Flush() {
	for _, f := range fp.frames {
		fp.mu.Lock()
		if f.block < 0 || f.loading {
			fp.mu.Unlock()
			continue
		}
		f.pins++
		block := f.block
		fp.mu.Unlock()
		f.mu.Lock()
		if f.dirty {
			if hook := fp.BeforeWriteback; hook != nil {
				hook(block)
			}
			fp.store.Write(block, f.buf)
			f.dirty = false
			fp.writebacks.Add(1)
			fp.met.Writebacks.Inc()
		}
		f.mu.Unlock()
		fp.unpin(f)
	}
}

// Counters implements CounterStore, merging the pool's frame traffic
// with the underlying store's device counters.
func (fp *FramePool) Counters() IOCounters {
	var c IOCounters
	if cs, ok := fp.store.(CounterStore); ok {
		c = cs.Counters()
	}
	c.FrameHits = fp.hits.Load()
	c.FrameMisses = fp.misses.Load()
	c.Evictions = fp.evictions.Load()
	c.Writebacks = fp.writebacks.Load()
	return c
}

// Close flushes dirty frames and releases the slab-backed frame
// memory. The pool must be idle.
func (fp *FramePool) Close() {
	fp.Flush()
	for _, f := range fp.frames {
		f.buf = nil
		f.slab.Release()
	}
}
