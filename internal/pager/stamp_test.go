package pager

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/vm"
)

// stamp fills a page with the stamp of (page, version): every word mixes
// both with its own index, so a page that lands in the wrong place, or a
// buffer recycled while a page was still on its way through it, reads
// wrong wherever the bytes differ.
func stamp(buf []byte, page, version uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], page<<48|version<<16|uint64(i/8))
	}
}

// TestPagingKeepsStamps pages anonymous memory eight times the kernel's
// frames through the default pager, while goroutines write whole pages of
// (page, version) stamps at random and read pages back to check them.
// Every write-back and page-in runs through recycled storage — the
// pageout daemon's page buffers, the pooled messages Manager.Dispatch
// releases, the recycled page structures — so storage reused before its
// last reader was done shows up as a page holding another page's stamp,
// or an old version of its own.
func TestPagingKeepsStamps(t *testing.T) {
	const (
		frames   = 32
		pageSize = 256
		pages    = 8 * frames
		workers  = 3
		ops      = 1500
	)
	// A page-in whose answer is lost fails its fault instead of hanging
	// the test.
	sys := vm.NewSystem(vm.Config{Frames: frames, PageSize: pageSize, Fault: vm.FaultPolicy{Timeout: 10 * time.Second}})
	defer sys.Shutdown()
	cache := NewObjectCache(sys, 0, nil)
	store := NewFramePool(machine.NewDisk(4*pages, pageSize, 0, nil), frames/2)
	mgr := NewManager(ipc.NewSpace(0, nil), NewDefaultPagerStore(store))
	boot, err := mgr.Space.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Adopt(boot); err != nil {
		t.Fatal(err)
	}
	bootPort, _ := mgr.Space.Resolve(boot)
	cache.SetDefaultPagerPort(bootPort)
	sys.SetDefaultPager(cache.AdoptInternal)
	go mgr.Run()
	defer mgr.Stop()

	m := sys.NewMap(0x1000, 0x10000000)
	base, err := m.Allocate(0, pages*pageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(p int) uint64 { return base + uint64(p)*pageSize }
	// versions[p] is written only by the worker that owns page p.
	versions := make([]uint64, pages)
	check := func(buf, want []byte, p int) bool {
		if err := m.ReadBytes(addr(p), buf); err != nil {
			t.Errorf("read page %d: %v", p, err)
			return false
		}
		stamp(want, uint64(p), versions[p])
		if string(buf) != string(want) {
			w := binary.LittleEndian.Uint64(buf)
			t.Errorf("page %d version %d reads page %d version %d", p, versions[p], w>>48, w>>16&0xffffffff)
			return false
		}
		return true
	}
	buf := make([]byte, pageSize)
	for p := range versions {
		versions[p] = 1
		stamp(buf, uint64(p), 1)
		if err := m.WriteBytes(addr(p), buf); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf, want := make([]byte, pageSize), make([]byte, pageSize)
			for i := 0; i < ops; i++ {
				p := w + workers*rng.Intn(pages/workers)
				if rng.Intn(2) == 0 {
					if !check(buf, want, p) {
						return
					}
					continue
				}
				stamp(buf, uint64(p), versions[p]+1)
				if err := m.WriteBytes(addr(p), buf); err != nil {
					t.Errorf("write page %d: %v", p, err)
					return
				}
				versions[p]++
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := make([]byte, pageSize)
	for p := range versions {
		if !check(buf, want, p) {
			return
		}
	}
	if st := sys.Stats(); st.Pageouts < pages || st.Pageins < pages {
		t.Fatalf("%d pageouts and %d page-ins: memory was not under pressure", st.Pageouts, st.Pageins)
	}
}
