package pager

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/iomgr"
	"repro/internal/machine"
)

func tempVolume(t *testing.T, blocks, bsize int) *FileVolume {
	t.Helper()
	v, err := OpenFileVolume(filepath.Join(t.TempDir(), "vol"), blocks, bsize, iomgr.Options{})
	if err != nil {
		t.Fatalf("OpenFileVolume: %v", err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// fill builds a recognizable block body: the block number everywhere.
func fill(bsize, blk int) []byte {
	return bytes.Repeat([]byte{byte(blk + 1)}, bsize)
}

// TestFramePoolDatasetLargerThanPool is the acceptance shape: a dataset
// 8x the frame count stays fully readable and writable through
// fault+evict cycles, and the store ends up holding exactly what was
// written.
func TestFramePoolDatasetLargerThanPool(t *testing.T) {
	const (
		blocks = 256
		frames = 32 // dataset is 8x the pool
		bsize  = 1024
	)
	v := tempVolume(t, blocks, bsize)
	fp := NewFramePool(v, frames)
	defer fp.Close()

	// Write every block through the pool (forcing eviction churn), in
	// a shuffled order so the clock hand sees a non-sequential pattern.
	order := rand.New(rand.NewSource(1)).Perm(blocks)
	for _, blk := range order {
		fp.Write(blk, fill(bsize, blk))
	}
	// Read every block back through the pool: resident ones hit,
	// evicted ones fault back in from the file.
	buf := make([]byte, bsize)
	for blk := 0; blk < blocks; blk++ {
		fp.Read(blk, buf)
		if !bytes.Equal(buf, fill(bsize, blk)) {
			t.Fatalf("block %d read %x.. want %x..", blk, buf[0], byte(blk+1))
		}
	}
	c := fp.Counters()
	if c.Evictions == 0 || c.Writebacks == 0 {
		t.Fatalf("no eviction under 8x pressure: %+v", c)
	}
	// After Flush, the file itself (bypassing the pool) must hold every
	// block — dirty frames all made it to the device.
	fp.Flush()
	for blk := 0; blk < blocks; blk++ {
		v.Read(blk, buf)
		if !bytes.Equal(buf, fill(bsize, blk)) {
			t.Fatalf("store block %d after flush = %x.., want %x..", blk, buf[0], byte(blk+1))
		}
	}
}

// TestFramePoolWarmHitsAvoidDevice: a working set that fits the pool is
// served with zero device reads after the first pass.
func TestFramePoolWarmHitsAvoidDevice(t *testing.T) {
	const (
		blocks = 64
		frames = 64
		bsize  = 512
	)
	v := tempVolume(t, blocks, bsize)
	fp := NewFramePool(v, frames)
	defer fp.Close()
	buf := make([]byte, bsize)
	for blk := 0; blk < blocks; blk++ {
		fp.Read(blk, buf) // cold pass
	}
	devReads := v.Counters().Reads
	for blk := 0; blk < blocks; blk++ {
		fp.Read(blk, buf) // warm pass
	}
	if got := v.Counters().Reads; got != devReads {
		t.Fatalf("warm pass did device reads: %d -> %d", devReads, got)
	}
	c := fp.Counters()
	if c.FrameHits < blocks || c.FrameMisses != blocks {
		t.Fatalf("hit/miss counters: %+v", c)
	}
}

// orderStore wraps a BlockStore and fails the test if a block is
// written back without the BeforeWriteback hook having fired for it
// first — the WAL-discipline seam.
type orderStore struct {
	BlockStore
	t       *testing.T
	mu      sync.Mutex
	blessed map[int]bool
}

func (o *orderStore) bless(block int) {
	o.mu.Lock()
	o.blessed[block] = true
	o.mu.Unlock()
}

func (o *orderStore) Write(block int, src []byte) {
	o.mu.Lock()
	ok := o.blessed[block]
	delete(o.blessed, block)
	o.mu.Unlock()
	if !ok {
		o.t.Errorf("block %d written back without BeforeWriteback", block)
	}
	o.BlockStore.Write(block, src)
}

// TestFramePoolWritebackHookOrdering proves every dirty writeback —
// eviction or Flush — is preceded by the BeforeWriteback hook.
func TestFramePoolWritebackHookOrdering(t *testing.T) {
	const (
		blocks = 64
		frames = 8
		bsize  = 256
	)
	base := machine.NewDisk(blocks, bsize, 0, nil)
	os := &orderStore{BlockStore: base, t: t, blessed: make(map[int]bool)}
	fp := NewFramePool(os, frames)
	fp.BeforeWriteback = os.bless
	defer fp.Close()
	for blk := 0; blk < blocks; blk++ {
		fp.Write(blk, fill(bsize, blk))
	}
	fp.Flush()
}

// TestFramePoolMultiFaulterStress hammers one pool from many goroutines
// under -race: concurrent faults, evictions and writebacks on a pool
// far smaller than the dataset. Blocks are filled with their own index
// so any frame-aliasing bug (a read served from another block's frame)
// is caught immediately.
func TestFramePoolMultiFaulterStress(t *testing.T) {
	const (
		blocks  = 96
		frames  = 8
		bsize   = 512
		workers = 16
		iters   = 400
	)
	v := tempVolume(t, blocks, bsize)
	fp := NewFramePool(v, frames)
	defer fp.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, bsize)
			for i := 0; i < iters; i++ {
				blk := rng.Intn(blocks)
				if rng.Intn(3) == 0 {
					fp.Write(blk, fill(bsize, blk))
				} else {
					fp.Read(blk, buf)
					// Zero (never written) or the block's own fill —
					// never another block's bytes.
					if buf[0] != 0 && buf[0] != byte(blk+1) {
						t.Errorf("block %d served alien data %x", blk, buf[0])
						return
					}
					for j := 1; j < bsize; j++ {
						if buf[j] != buf[0] {
							t.Errorf("block %d torn read at %d: %x vs %x", blk, j, buf[j], buf[0])
							return
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Post-stress integrity: flush and verify via the device.
	fp.Flush()
	buf := make([]byte, bsize)
	for blk := 0; blk < blocks; blk++ {
		v.Read(blk, buf)
		if buf[0] != 0 && buf[0] != byte(blk+1) {
			t.Fatalf("store block %d holds alien data %x", blk, buf[0])
		}
	}
}

// TestFileVolumeZeroFill: never-written volume blocks read as zeroes,
// like a fresh machine.Disk.
func TestFileVolumeZeroFill(t *testing.T) {
	v := tempVolume(t, 16, 4096)
	buf := bytes.Repeat([]byte{0xee}, 4096)
	v.Read(7, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh block byte %d = %x", i, b)
		}
	}
}

// A cold miss that evicts a dirty frame allocates nothing: the fault
// writes the victim back, reads the block in, and any faulter that came
// for the same block meanwhile waits on the frame's condition.
func TestFramePoolColdMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const blocks, frames, bsize = 16, 4, 512
	disk := machine.NewDisk(blocks, bsize, 0, nil)
	fp := NewFramePool(disk, frames)
	defer fp.Close()
	page := make([]byte, bsize)
	fills := make([][]byte, blocks)
	for b := range fills {
		fills[b] = fill(bsize, b)
	}
	blk := 0
	fault := func() {
		// Each block is written (dirtying its frame) and read back; by
		// the time it comes round again its frame was evicted.
		fp.Write(blk, fills[blk])
		fp.Read(blk, page)
		if page[0] != byte(blk+1) {
			t.Fatalf("block %d read %x", blk, page[0])
		}
		blk = (blk + 1) % blocks
	}
	for i := 0; i < 2*blocks; i++ {
		fault()
	}
	before := fp.Counters()
	if n := testing.AllocsPerRun(200, fault); n != 0 {
		t.Fatalf("cold miss with eviction allocates %v times", n)
	}
	after := fp.Counters()
	if misses, wb := after.FrameMisses-before.FrameMisses, after.Writebacks-before.Writebacks; misses != 201 || wb != 201 {
		t.Fatalf("%d misses and %d write-backs over 201 faults, want one each per fault", misses, wb)
	}
}

// gatedStore holds every Read until the test opens the gate.
type gatedStore struct {
	BlockStore
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedStore) Read(block int, dst []byte) {
	g.entered <- struct{}{}
	<-g.gate
	g.BlockStore.Read(block, dst)
}

// Faulters arriving for a block whose read is in flight wait for it
// instead of reading again: one device read serves them all.
func TestFramePoolConcurrentFaultersCoalesce(t *testing.T) {
	const faulters, bsize = 4, 512
	disk := machine.NewDisk(8, bsize, 0, nil)
	disk.Write(3, fill(bsize, 3))
	store := &gatedStore{BlockStore: disk, entered: make(chan struct{}, faulters), gate: make(chan struct{})}
	fp := NewFramePool(store, 2)
	var wg sync.WaitGroup
	for i := 0; i < faulters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, bsize)
			fp.Read(3, buf)
			if !bytes.Equal(buf, fill(bsize, 3)) {
				t.Errorf("faulter read %x", buf[0])
			}
		}()
	}
	<-store.entered
	// Every faulter has pinned the loading frame before the read lands.
	for {
		fp.mu.Lock()
		pins := fp.index[3].pins
		fp.mu.Unlock()
		if pins == faulters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(store.gate)
	wg.Wait()
	if reads := disk.Stats().Reads; reads != 1 {
		t.Fatalf("%d device reads for one block, want 1", reads)
	}
	if c := fp.Counters(); c.FrameMisses != 1 || c.FrameHits != 0 {
		t.Fatalf("misses %d hits %d, want 1 miss and the waiters counted as neither", c.FrameMisses, c.FrameHits)
	}
}
