package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/netmem"
)

// E5SharedMemoryLocality regenerates the §4.2/§7 (Li-Hudak) claim: the
// efficiency of network shared memory depends on read/write locality.
// Clients on separate NORMA hosts access a shared region; as the locality
// parameter drops, writers collide on pages and the invalidation traffic
// climbs.
func E5SharedMemoryLocality() Table {
	t := Table{
		ID:         "E5",
		Title:      "consistent network shared memory vs access locality (4 hosts)",
		PaperClaim: "\"The efficiency of algorithms that use this form of network shared memory depends on the extent to which they exhibit read/write locality\" (§7)",
		Headers:    []string{"locality", "ops", "invalidations", "inv/op", "writebacks", "sim-ms", "us/op"},
	}
	const (
		clients   = 4
		pagesEach = 4
		pageSize  = 4096
		opsEach   = 300
		writePct  = 0.3
	)
	for _, locality := range []float64{0.0, 0.5, 0.9, 1.0} {
		clock := machine.NewClock()
		topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
		kernels := make([]*kern.Kernel, clients)
		for i := range kernels {
			kernels[i] = kern.NewKernel(kern.Config{
				Host: machine.HostID(i), Frames: 512, PageSize: pageSize,
				Clock: clock, Topo: topo,
			})
		}
		srv, err := netmem.NewServer(kernels[0])
		if err != nil {
			panic(err)
		}
		go srv.Run()
		if err := srv.CreateRegion("blackboard", clients*pagesEach*pageSize); err != nil {
			panic(err)
		}

		tasks := make([]*kern.Task, clients)
		addrs := make([]uint64, clients)
		for i := range tasks {
			tasks[i] = kernels[i].NewTask()
			svcName, err := srv.Publish(tasks[i])
			if err != nil {
				panic(err)
			}
			addrs[i], _, err = netmem.Attach(tasks[i], svcName, "blackboard")
			if err != nil {
				panic(err)
			}
		}

		// Clients proceed in lock-step rounds (one operation per round,
		// barrier between rounds) so that their accesses genuinely
		// interleave — otherwise a fast client races through its cache
		// hits before the others ever conflict with it.
		start := clock.Now()
		var wg sync.WaitGroup
		barriers := make([]sync.WaitGroup, opsEach)
		for i := range barriers {
			barriers[i].Add(clients)
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := newLCG(uint64(c + 1))
				buf := []byte{byte(c + 1)}
				for op := 0; op < opsEach; op++ {
					var page int
					if rng.float() < locality {
						page = c*pagesEach + rng.intn(pagesEach)
					} else {
						page = rng.intn(clients * pagesEach)
					}
					off := addrs[c] + uint64(page*pageSize) + uint64(rng.intn(pageSize-1))
					if rng.float() < writePct {
						if err := tasks[c].VMWrite(off, buf); err != nil {
							panic(err)
						}
					} else {
						if _, err := tasks[c].VMRead(off, 1); err != nil {
							panic(err)
						}
					}
					barriers[op].Done()
					barriers[op].Wait()
				}
			}(c)
		}
		wg.Wait()
		elapsed := clock.Now() - start
		st := srv.Stats()
		totalOps := clients * opsEach
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", locality),
			fmt.Sprintf("%d", totalOps),
			fmt.Sprintf("%d", st.Invalidations),
			fmt.Sprintf("%.3f", float64(st.Invalidations)/float64(totalOps)),
			fmt.Sprintf("%d", st.WriteBacks),
			ms(elapsed),
			us(elapsed / time.Duration(totalOps)),
		})
		srv.Stop()
		for _, k := range kernels {
			k.Shutdown()
		}
	}
	t.Notes = append(t.Notes,
		"locality 1.0: every host works in its own pages — after warm-up, no invalidations",
		"locality 0.0: writers collide constantly — invalidation storms, each op costs network rounds")
	return t
}

// E6Migration regenerates §8.2: copy-on-reference migration moves only
// the pages the migrated task touches; pre-paging trades transfer volume
// for fault-free startup.
func E6Migration() Table {
	t := Table{
		ID:         "E6",
		Title:      "copy-on-reference task migration (256-page task, NORMA pair)",
		PaperClaim: "\"migration could be performed efficiently using copy-on-reference\"; pre-paging \"for tasks with predictable access patterns\" (§8.2)",
		Headers:    []string{"strategy", "touch", "pages-moved", "remote-KiB", "sim-ms"},
	}
	const (
		pageSize = 4096
		npages   = 256
	)
	type cfg struct {
		name    string
		prepage bool
		touch   float64
	}
	cases := []cfg{
		{"demand", false, 0.01},
		{"demand", false, 0.10},
		{"demand", false, 0.50},
		{"demand", false, 1.00},
		{"pre-page", true, 0.10},
		{"pre-page", true, 1.00},
	}
	for _, c := range cases {
		clock := machine.NewClock()
		topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
		src := kern.NewKernel(kern.Config{Host: 0, Frames: 1024, PageSize: pageSize, Clock: clock, Topo: topo})
		dst := kern.NewKernel(kern.Config{Host: 1, Frames: 1024, PageSize: pageSize, Clock: clock, Topo: topo})

		task := src.NewTask()
		addr, _ := task.VMAllocate(0, npages*pageSize, true)
		page := make([]byte, pageSize)
		for i := 0; i < npages; i++ {
			page[0] = byte(i)
			_ = task.VMWrite(addr+uint64(i*pageSize), page)
		}

		topo.ResetStats()
		start := clock.Now()
		migrated, mig, err := migrate.Migrate(task, dst, migrate.Options{PrePage: c.prepage})
		if err != nil {
			panic(err)
		}
		if c.prepage {
			// Wait until the destination kernel has applied, and the
			// clock charged, every pre-paged page, and until the
			// migration has counted each one: it counts a page after
			// sending it, so either side can finish first.
			for dst.Statistics().Pageins < npages || mig.Stats().PagesPrePaged < npages {
				time.Sleep(100 * time.Microsecond)
			}
		}
		// The migrated task's workload: touch the given fraction.
		limit := int(float64(npages) * c.touch)
		var one [1]byte
		for i := 0; i < limit; i++ {
			if _, err := migrated.VMRead(addr+uint64(i*pageSize), 1); err != nil {
				panic(err)
			}
			_ = one
		}
		elapsed := clock.Now() - start
		st := mig.Stats()
		moved := st.PagesRequested + st.PagesPrePaged
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.0f%%", c.touch*100),
			fmt.Sprintf("%d", moved),
			fmt.Sprintf("%d", topo.Stats().RemoteBytes/1024),
			ms(elapsed),
		})
		mig.Stop()
		src.Shutdown()
		dst.Shutdown()
	}
	t.Notes = append(t.Notes,
		"demand migration cost tracks the touch fraction, not the address space size",
		"pre-paging moves everything up front: wins when the task will touch it all anyway")
	return t
}
