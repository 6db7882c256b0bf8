package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/camelot"
	"repro/internal/iomgr"
	"repro/internal/kern"
	"repro/internal/obs"
	"repro/internal/pager"
)

// E11DurableIO measures the real-file storage stack: the default pager
// backed by a frame-table buffer pool over an iomgr file volume, and
// the durable Camelot manager whose commits are group-committed
// fsyncs. Unlike E2-E10 these numbers are REAL device I/O (the
// operating system's, not the simulated clock's): the table reports
// what actually hit the file — frame-pool traffic, device reads and
// writes, and WAL fsync batching.
func E11DurableIO() Table {
	t := Table{
		ID:         "E11",
		Title:      "durable storage: frame pool over real files, group-committed WAL",
		PaperClaim: "\"memory object data can be cached in a machine's main memory\" while backing storage stays on disk (§5); the disk manager forces \"the proper log records\" before page writes (§8.3)",
		Headers:    []string{"case", "frame-hits", "frame-misses", "evictions", "dev-reads", "dev-writes", "fsyncs", "wal-appends", "wal-forces"},
	}
	dir, err := os.MkdirTemp("", "e11-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	const pgsz = 4096
	row := func(name string, c pager.IOCounters, ws camelot.WALStats) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(c.FrameHits), fmt.Sprint(c.FrameMisses), fmt.Sprint(c.Evictions),
			fmt.Sprint(c.Reads), fmt.Sprint(c.Writes), fmt.Sprint(c.Fsyncs + ws.Fsyncs),
			fmt.Sprint(ws.Appends), fmt.Sprint(ws.Forces),
		})
	}

	// Accounting for the footer comes straight from the shared
	// observability registry, not the subsystems' private counters.
	regBase := obs.Default().Snapshot()

	// File-backed default pager under memory pressure: the dataset is
	// 4x the frame pool and 16x kernel memory, so pages live through
	// pageout -> frame pool -> file and fault back the same way.
	paging := func(name string, npages, frames int) {
		vol, err := pager.OpenFileVolume(filepath.Join(dir, name+".vol"), 4*npages, pgsz, iomgr.Options{})
		if err != nil {
			panic(err)
		}
		fp := pager.NewFramePool(vol, frames)
		k := kern.NewKernel(kern.Config{Frames: 16, PageSize: pgsz, PagingStore: fp})
		task := k.NewTask()
		addr, err := task.VMAllocate(0, uint64(npages)*pgsz, true)
		if err != nil {
			panic(err)
		}
		page := make([]byte, pgsz)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < npages; i++ {
				if pass == 0 {
					page[0] = byte(i)
					if err := task.VMWrite(addr+uint64(i)*pgsz, page); err != nil {
						panic(err)
					}
				} else if _, err := task.VMRead(addr+uint64(i)*pgsz, pgsz); err != nil {
					panic(err)
				}
			}
		}
		row(name, k.DefaultPager().Counters(), camelot.WALStats{})
		k.Shutdown()
		vol.Close()
	}
	paging("pager-cold-64p-16f", 64, 16)
	paging("pager-warm-16p-64f", 16, 64)
	d := obs.Default().Snapshot().Diff(regBase)
	t.Metrics = append(t.Metrics, fmt.Sprintf(
		"paging cases: pager cold=%d warm=%d evictions=%d writebacks=%d; iomgr submitted=%d bytes r/w=%d/%d",
		d.Counters["pager.faults_cold"], d.Counters["pager.faults_warm"],
		d.Counters["pager.evictions"], d.Counters["pager.writebacks"],
		d.Counters["iomgr.submitted"],
		d.Counters["iomgr.bytes_read"], d.Counters["iomgr.bytes_written"]))
	regBase = obs.Default().Snapshot()

	// Durable Camelot: transactions against a real-file volume; commit
	// fsyncs are the dominating device cost, batched by group commit.
	k := kern.NewKernel(kern.Config{Frames: 64, PageSize: pgsz})
	dm, err := camelot.NewDurableDiskManager(k, filepath.Join(dir, "camelot"), camelot.DurableOptions{
		DataBlocks: 256, LogBlocks: 4096, LogBlockSize: 512, Frames: 16,
	})
	if err != nil {
		panic(err)
	}
	go dm.Run()
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		panic(err)
	}
	client := camelot.Open(app, svc)
	if err := client.CreateSegment("bank", 16*pgsz); err != nil {
		panic(err)
	}
	seg, err := client.Attach("bank")
	if err != nil {
		panic(err)
	}
	rng := newLCG(11)
	for tx := 0; tx < 32; tx++ {
		x := client.Begin()
		for w := 0; w < 4; w++ {
			off := uint64(rng.intn(16*pgsz - 8))
			if err := x.Write(seg, off, []byte{byte(rng.intn(256))}); err != nil {
				panic(err)
			}
		}
		if err := x.Commit(); err != nil {
			panic(err)
		}
	}
	row("camelot-32tx-4w", dm.IOCounters(), dm.WAL().Stats())
	d = obs.Default().Snapshot().Diff(regBase)
	t.Metrics = append(t.Metrics, fmt.Sprintf(
		"camelot case: wal appends=%d forces=%d fsyncs=%d; iomgr fsyncs=%d submitted=%d",
		d.Counters["camelot.wal_appends"], d.Counters["camelot.wal_forces"],
		d.Counters["camelot.wal_fsyncs"], d.Counters["iomgr.fsyncs"],
		d.Counters["iomgr.submitted"]))
	dm.Close()
	k.Shutdown()

	t.Notes = append(t.Notes,
		"real OS file I/O, not the simulated clock: absolute counts are the claim, not latencies",
		"warm case: zero device reads after the first pass — the frame pool serves the working set",
		"camelot fsyncs <= wal-forces: concurrent committers share group-commit fsyncs")
	return t
}
