package migrate

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
)

const pgsz = 256

func newPair(t *testing.T, frames int) (*kern.Kernel, *kern.Kernel, *machine.Topology) {
	t.Helper()
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
	src := kern.NewKernel(kern.Config{Host: 0, Frames: 512, PageSize: pgsz, Clock: clock, Topo: topo})
	dst := kern.NewKernel(kern.Config{Host: 1, Frames: frames, PageSize: pgsz, Clock: clock, Topo: topo})
	t.Cleanup(func() { src.Shutdown(); dst.Shutdown() })
	return src, dst, topo
}

// buildTask fills a task with npages of identifiable data.
func buildTask(t *testing.T, k *kern.Kernel, npages int) (*kern.Task, uint64) {
	t.Helper()
	task := k.NewTask()
	addr, err := task.VMAllocate(0, uint64(npages)*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pgsz)
	for i := 0; i < npages; i++ {
		for j := range page {
			page[j] = byte(i ^ j)
		}
		if err := task.VMWrite(addr+uint64(i)*pgsz, page); err != nil {
			t.Fatal(err)
		}
	}
	return task, addr
}

func TestMigrateDemandPaging(t *testing.T) {
	src, dst, _ := newPair(t, 512)
	const npages = 16
	task, addr := buildTask(t, src, npages)

	migrated, mig, err := Migrate(task, dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()

	// The migrated task sees its memory at the SAME addresses.
	for i := 0; i < npages; i++ {
		got, err := migrated.VMRead(addr+uint64(i)*pgsz, pgsz)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		for j := range got {
			if got[j] != byte(i^j) {
				t.Fatalf("page %d byte %d = %d", i, j, got[j])
			}
		}
	}
	st := mig.Stats()
	if st.Regions != 1 || st.BytesMapped != npages*pgsz {
		t.Fatalf("stats %+v", st)
	}
	if st.PagesRequested != npages {
		t.Fatalf("demand requests %d, want %d", st.PagesRequested, npages)
	}
}

func TestMigrateOnlyTouchedPagesMove(t *testing.T) {
	src, dst, topo := newPair(t, 512)
	const npages = 64
	task, addr := buildTask(t, src, npages)
	migrated, mig, err := Migrate(task, dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	topo.ResetStats()

	// Touch only 4 of 64 pages.
	for i := 0; i < 4; i++ {
		if _, err := migrated.VMRead(addr+uint64(i*16)*pgsz, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := mig.Stats()
	if st.PagesRequested != 4 {
		t.Fatalf("pages moved %d, want 4 (copy-on-reference)", st.PagesRequested)
	}
	// Network carried only those pages (plus protocol overhead).
	if rb := topo.Stats().RemoteBytes; rb > 8*pgsz {
		t.Fatalf("remote bytes %d for 4 pages of %d", rb, pgsz)
	}
}

func TestMigrateWritesStayOnDestination(t *testing.T) {
	src, dst, _ := newPair(t, 512)
	task, addr := buildTask(t, src, 4)
	migrated, mig, err := Migrate(task, dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	if err := migrated.VMWrite(addr, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	got, err := migrated.VMRead(addr, 1)
	if err != nil || got[0] != 0xFF {
		t.Fatalf("migrated write lost: %v %v", err, got)
	}
}

func TestMigratePrePaging(t *testing.T) {
	src, dst, _ := newPair(t, 512)
	const npages = 16
	task, addr := buildTask(t, src, npages)
	migrated, mig, err := Migrate(task, dst, Options{PrePage: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()

	// Wait until the destination kernel has applied every pre-paged
	// page. Counting the manager's sends is not enough: the kernel
	// applies them asynchronously, and a read that ran first would fault
	// and make a demand request.
	deadline := time.Now().Add(5 * time.Second)
	for dst.Statistics().Pageins < npages && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := dst.Statistics().Pageins; got != npages {
		t.Fatalf("destination paged in %d, want %d", got, npages)
	}
	if got := mig.Stats().PagesPrePaged; got != npages {
		t.Fatalf("pre-paged %d, want %d", got, npages)
	}
	// Demand reads now hit the destination cache: no requests at all.
	for i := 0; i < npages; i++ {
		got, err := migrated.VMRead(addr+uint64(i)*pgsz, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != byte(i^1) {
			t.Fatalf("pre-paged data wrong on page %d", i)
		}
	}
	if st := mig.Stats(); st.PagesRequested != 0 {
		t.Fatalf("demand requests after full pre-page: %d", st.PagesRequested)
	}
}

func TestMigratePartialPrePage(t *testing.T) {
	src, dst, _ := newPair(t, 512)
	const npages = 32
	task, addr := buildTask(t, src, npages)
	migrated, mig, err := Migrate(task, dst, Options{PrePage: true, PrePageFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for mig.Stats().PagesPrePaged < npages/4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mig.Stats().PagesPrePaged; got != npages/4 {
		t.Fatalf("pre-paged %d, want %d", got, npages/4)
	}
	// The rest still demand-faults correctly.
	got, err := migrated.VMRead(addr+uint64(npages-1)*pgsz, 1)
	if err != nil || got[0] != byte((npages-1)^0) {
		t.Fatalf("tail page: %v %v", err, got)
	}
}

func TestMigrateUnderDestinationPressure(t *testing.T) {
	// Destination has tiny memory: migrated pages are evicted and
	// written back to the source; data must survive the round trip.
	src, dst, _ := newPair(t, 16)
	const npages = 48
	task, addr := buildTask(t, src, npages)
	migrated, mig, err := Migrate(task, dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	// Dirty every page on the destination.
	for i := 0; i < npages; i++ {
		if err := migrated.VMWrite(addr+uint64(i)*pgsz, []byte{byte(200 + i%50)}); err != nil {
			t.Fatal(err)
		}
	}
	// Read everything back; evicted pages refault through the source.
	for i := 0; i < npages; i++ {
		got, err := migrated.VMRead(addr+uint64(i)*pgsz, 2)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if got[0] != byte(200+i%50) || got[1] != byte(i^1) {
			t.Fatalf("page %d = %v", i, got[:2])
		}
	}
	if mig.Stats().PagesWrittenBack == 0 {
		t.Fatal("no write-backs despite destination pressure")
	}
}

func TestMigrateMultipleRegions(t *testing.T) {
	src, dst, _ := newPair(t, 512)
	task := src.NewTask()
	a1, _ := task.VMAllocate(0, 2*pgsz, true)
	a2, _ := task.VMAllocate(0, 3*pgsz, true)
	task.VMWrite(a1, []byte("region one"))
	task.VMWrite(a2, []byte("region two"))
	migrated, mig, err := Migrate(task, dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	if mig.Stats().Regions != 2 {
		t.Fatalf("regions %d", mig.Stats().Regions)
	}
	b1, err := migrated.VMRead(a1, 10)
	if err != nil || !bytes.Equal(b1, []byte("region one")) {
		t.Fatalf("r1 %v %q", err, b1)
	}
	b2, err := migrated.VMRead(a2, 10)
	if err != nil || !bytes.Equal(b2, []byte("region two")) {
		t.Fatalf("r2 %v %q", err, b2)
	}
}

func TestMigrateEmptyTask(t *testing.T) {
	src, dst, _ := newPair(t, 64)
	task := src.NewTask()
	if _, _, err := Migrate(task, dst, Options{}); err != ErrNothingToMigrate {
		t.Fatalf("empty migrate: %v", err)
	}
}
