package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/vm"
)

// E9Ablations measures three of the reproduction's design choices, each
// against the obvious alternative:
//
//   - copy-on-write fork vs an eager copy of the address space;
//   - cross-host out-of-line transfer: eager copy at receive vs
//     copy-on-reference through a transit pager (§7's software
//     copy-on-reference);
//   - the pageout daemon's free-target setting under overcommit.
func E9Ablations() Table {
	t := Table{
		ID:         "E9",
		Title:      "ablations of the design choices (simulated)",
		PaperClaim: "design-internal: what the COW and external-pager machinery buys over eager alternatives",
		Headers:    []string{"ablation", "variant", "metric", "value"},
	}
	const pageSize = 4096

	// --- fork: COW vs eager copy, child touches 1/16 of the space ---
	{
		const npages = 256
		k := kern.NewKernel(kern.Config{Frames: 4096, PageSize: pageSize})
		clock := k.Clock()
		parent := k.NewTask()
		addr, _ := parent.VMAllocate(0, npages*pageSize, true)
		_ = parent.Map.Touch(addr, npages*pageSize, vm.ProtWrite)

		start := clock.Now()
		child, _ := parent.Fork()
		for i := 0; i < npages/16; i++ {
			_ = child.Map.Touch(addr+uint64(i*16*pageSize), 1, vm.ProtWrite)
		}
		cow := clock.Now() - start

		// Eager: copy every byte at fork time through the access path.
		start = clock.Now()
		eagerChild := k.NewTask()
		eaddr, _ := eagerChild.VMAllocate(addr, npages*pageSize, false)
		buf := make([]byte, npages*pageSize)
		_ = parent.Map.ReadBytes(addr, buf)
		_ = eagerChild.Map.WriteBytes(eaddr, buf)
		for i := 0; i < npages/16; i++ {
			_ = eagerChild.Map.Touch(eaddr+uint64(i*16*pageSize), 1, vm.ProtWrite)
		}
		eager := clock.Now() - start

		t.Rows = append(t.Rows,
			[]string{"fork (touch 1/16)", "copy-on-write", "sim-us", us(cow)},
			[]string{"fork (touch 1/16)", "eager copy", "sim-us", us(eager)},
			[]string{"fork (touch 1/16)", "", "cow wins by", ratio(float64(eager), float64(cow))},
		)
		k.Shutdown()
	}

	// --- cross-host OOL: eager vs copy-on-reference, touch 1/16 ---
	{
		const npages = 256
		run := func(cor bool) (time.Duration, int64) {
			clock := machine.NewClock()
			topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
			k0 := kern.NewKernel(kern.Config{Host: 0, Frames: 4096, PageSize: pageSize, Clock: clock, Topo: topo})
			k1 := kern.NewKernel(kern.Config{Host: 1, Frames: 4096, PageSize: pageSize, Clock: clock, Topo: topo})
			defer k0.Shutdown()
			defer k1.Shutdown()
			sender := k0.NewTask()
			receiver := k1.NewTask()
			svc, _ := receiver.Space.AllocatePort()
			name, _ := receiver.Space.CopySendRight(sender.Space, svc)
			addr, _ := sender.VMAllocate(0, npages*pageSize, true)
			_ = sender.Map.Touch(addr, npages*pageSize, vm.ProtWrite)

			topo.ResetStats()
			start := clock.Now()
			region, err := k0.NewOOLRegion(sender, addr, npages*pageSize)
			if err != nil {
				panic(err)
			}
			_ = sender.Send(&ipc.Message{ID: 1, RemotePort: name,
				Sections: []ipc.Section{ipc.CarryRegion(region)}}, ipc.SendOptions{})
			m, _ := receiver.Receive(svc, ipc.ReceiveOptions{})
			var raddr uint64
			if cor {
				raddr, err = k1.MapOOLRegionCOR(receiver, m.FirstRegion())
			} else {
				raddr, err = k1.MapOOLRegion(receiver, m.FirstRegion())
			}
			if err != nil {
				panic(err)
			}
			for i := 0; i < npages/16; i++ {
				if _, err := receiver.VMRead(raddr+uint64(i*16*pageSize), 1); err != nil {
					panic(err)
				}
			}
			return clock.Now() - start, topo.Stats().RemoteBytes
		}
		eagerT, eagerB := run(false)
		corT, corB := run(true)
		t.Rows = append(t.Rows,
			[]string{"cross-host OOL (touch 1/16)", "eager at receive", "sim-us / remote-KiB",
				fmt.Sprintf("%s / %d", us(eagerT), eagerB/1024)},
			[]string{"cross-host OOL (touch 1/16)", "copy-on-reference", "sim-us / remote-KiB",
				fmt.Sprintf("%s / %d", us(corT), corB/1024)},
			[]string{"cross-host OOL (touch 1/16)", "", "cor wins by", ratio(float64(eagerT), float64(corT))},
		)
	}

	// --- pageout free target: hot/cold workload under 4x overcommit ---
	// A 32-page hot set is re-read while 512 cold pages stream through
	// 128 frames. A larger free target shrinks the effective cache, so
	// hot pages miss more often (more pageins); the reference bit saves
	// hot pages via reactivation when the target is modest.
	for _, target := range []int{4, 16, 48} {
		sys := vm.NewSystem(vm.Config{Frames: 128, PageSize: pageSize, FreeTarget: target})
		dp := newDirectStore(sys, pageSize)
		sys.SetDefaultPager(func(obj *vm.Object) vm.Pager { return dp })
		m := sys.NewMap(0x10000, 0x100000000)
		const (
			npages = 512
			hot    = 32
		)
		addr, _ := m.Allocate(0, npages*pageSize, true)
		page := make([]byte, pageSize)
		_ = m.Touch(addr, hot*pageSize, vm.ProtWrite) // warm the hot set
		for i := hot; i < npages; i++ {
			page[0] = byte(i)
			_ = m.WriteBytes(addr+uint64(i*pageSize), page)
			// Re-read a sliding window of the hot set.
			for h := 0; h < 4; h++ {
				_ = m.ReadBytes(addr+uint64(((i*4+h)%hot)*pageSize), page[:1])
			}
		}
		st := sys.Stats()
		t.Rows = append(t.Rows, []string{
			"pageout free target (hot/cold, 4x overcommit)",
			fmt.Sprintf("target=%d/128", target),
			"pageouts / pageins / reactivations",
			fmt.Sprintf("%d / %d / %d", st.Pageouts, st.Pageins, st.Reactivations),
		})
		sys.Shutdown()
	}

	t.Notes = append(t.Notes,
		"COW fork's advantage scales with the untouched fraction — the §3.3 inheritance design",
		"copy-on-reference OOL is the §7 software technique: network bytes track the touched pages only",
		"a deeper free target scans more of the inactive queue, so the reference bit rescues hot pages (reactivations up, hot-set pageins down) at the cost of more cold pageouts")
	return t
}

// directStore is a minimal in-process default pager for the free-target
// sweep (no IPC; the sweep isolates pageout policy). It answers requests
// inline, modelling a kernel-state default pager task (the paper's
// status-section configuration).
type directStore struct {
	sys      *vm.System
	pageSize int
	mu       sync.Mutex
	pages    map[string][]byte
}

func newDirectStore(sys *vm.System, pageSize int) *directStore {
	return &directStore{sys: sys, pageSize: pageSize, pages: map[string][]byte{}}
}

func key(obj *vm.Object, off uint64) string { return fmt.Sprintf("%d/%d", obj.ID(), off) }

func (d *directStore) Init(obj *vm.Object) {}

func (d *directStore) DataRequest(obj *vm.Object, offset, length uint64, desired vm.Prot, _ *vm.FrameGrant) {
	d.mu.Lock()
	data, ok := d.pages[key(obj, offset)]
	d.mu.Unlock()
	if !ok {
		d.sys.DataUnavailable(obj, offset, uint64(d.pageSize))
		return
	}
	d.sys.DataProvided(obj, offset, data, vm.ProtNone)
}

func (d *directStore) DataWrite(obj *vm.Object, offset uint64, data []byte) {
	cp := append([]byte(nil), data...)
	d.mu.Lock()
	d.pages[key(obj, offset)] = cp
	d.mu.Unlock()
}

func (d *directStore) DataUnlock(obj *vm.Object, offset, length uint64, desired vm.Prot) {}
func (d *directStore) Terminate(obj *vm.Object)                                          {}
