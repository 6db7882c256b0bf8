// Package migrate implements copy-on-reference task migration (§8.2, the
// Zayas technique): the migration service creates a memory object to
// represent each region of the original task's address space and maps it
// into a new task on the destination host. The destination kernel treats
// page faults on the migrated task by making paging requests on those
// objects, so only the pages the task actually touches cross the network.
//
// A migration manager may also pre-page: provide some data in advance for
// tasks with predictable access patterns, overlapping transfer with the
// migrated task's execution — both strategies of §8.2 are implemented and
// compared by experiment E6.
package migrate

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/vm"
)

// Options selects the migration strategy.
type Options struct {
	// PrePage pushes pages to the destination in advance instead of
	// waiting for demand faults ("pre-paging can proceed while the
	// newly-migrated task begins to run").
	PrePage bool
	// PrePageFraction limits pre-paging to the first fraction of each
	// region (0 or 1 = everything). Models "some data in advance for
	// tasks with predictable access patterns".
	PrePageFraction float64
}

// Stats describes what a migration moved.
type Stats struct {
	// Regions is the number of address-space regions migrated.
	Regions int
	// BytesMapped is the total size of the migrated address space.
	BytesMapped uint64
	// PagesRequested counts demand pager_data_request calls served.
	PagesRequested int64
	// PagesPrePaged counts pages pushed in advance.
	PagesPrePaged int64
	// PagesWrittenBack counts dirty destination pages returned to the
	// source backing store.
	PagesWrittenBack int64
}

// Migration is a live copy-on-reference migration: the handle through
// which the source's memory continues to back the destination task.
type Migration struct {
	mgr     *pager.Manager
	srcTask *kern.Task
	dstTask *kern.Task

	pagesRequested   atomic.Int64
	pagesPrePaged    atomic.Int64
	pagesWrittenBack atomic.Int64

	mu      sync.Mutex
	regions []regionTag
}

// regionTag identifies the source range one memory object represents.
type regionTag struct {
	m     *Migration
	start uint64
	size  uint64
	mo    *pager.MemoryObject
}

// ErrNothingToMigrate is returned for a task with an empty address space.
var ErrNothingToMigrate = errors.New("migrate: task has no regions")

// Migrate moves src's address space to a new task on dst copy-on-
// reference and returns the new task. The source task is suspended as a
// data donor: its memory becomes the backing store for the migrated
// task's memory objects. The caller should stop running threads in src.
func Migrate(src *kern.Task, dst *kern.Kernel, opts Options) (*kern.Task, *Migration, error) {
	regions := src.VMRegions()
	if len(regions) == 0 {
		return nil, nil, ErrNothingToMigrate
	}

	// The migration manager runs as a task on the SOURCE host, where
	// the data lives.
	mgrTask := src.Kernel().NewTask()
	m := &Migration{srcTask: src}
	m.mgr = pager.NewManager(mgrTask.Space, (*handler)(m))
	go m.mgr.Run()

	newTask := dst.NewTask()
	m.dstTask = newTask

	for _, r := range regions {
		tag := &regionTag{m: m, start: r.Start, size: r.Size}
		mo, err := m.mgr.NewObject(tag)
		if err != nil {
			m.Stop()
			newTask.Terminate()
			return nil, nil, err
		}
		tag.mo = mo
		m.mu.Lock()
		m.regions = append(m.regions, *tag)
		m.mu.Unlock()
		// Hand the destination task the object and map it at the SAME
		// address, preserving the task's pointers.
		name, err := mgrTask.Space.CopySendRight(newTask.Space, mo.Port)
		if err != nil {
			m.Stop()
			newTask.Terminate()
			return nil, nil, err
		}
		if _, err := newTask.VMAllocateWithPager(name, 0, r.Start, r.Size, false); err != nil {
			m.Stop()
			newTask.Terminate()
			return nil, nil, err
		}
	}

	if opts.PrePage {
		go m.prePage(opts.PrePageFraction)
	}
	return newTask, m, nil
}

// prePage pushes region data to the destination ahead of demand.
func (m *Migration) prePage(fraction float64) {
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	ps := m.srcTask.Kernel().VM.PageSize()
	m.mu.Lock()
	regions := append([]regionTag(nil), m.regions...)
	m.mu.Unlock()
	for _, r := range regions {
		// Wait until the destination kernel's pager_init arrives (the
		// request port is set then).
		deadline := time.Now().Add(5 * time.Second)
		for !m.mgr.RequestPortReady(r.mo) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		limit := uint64(float64(r.size) * fraction)
		limit = (limit + ps - 1) / ps * ps
		buf := make([]byte, ps)
		for off := uint64(0); off < limit; off += ps {
			if err := m.srcTask.Map.ReadBytes(r.start+off, buf); err != nil {
				break
			}
			if err := r.mo.DataProvided(off, buf, vm.ProtNone); err != nil {
				break
			}
			m.pagesPrePaged.Add(1)
		}
	}
}

// Stats returns migration transfer counters.
func (m *Migration) Stats() Stats {
	m.mu.Lock()
	n := len(m.regions)
	var bytes uint64
	for _, r := range m.regions {
		bytes += r.size
	}
	m.mu.Unlock()
	return Stats{
		Regions:          n,
		BytesMapped:      bytes,
		PagesRequested:   m.pagesRequested.Load(),
		PagesPrePaged:    m.pagesPrePaged.Load(),
		PagesWrittenBack: m.pagesWrittenBack.Load(),
	}
}

// Stop shuts the migration manager down. The destination task keeps any
// pages already cached but further faults on unmigrated pages fail —
// call only when the destination task is finished or fully paged in.
func (m *Migration) Stop() { m.mgr.Stop() }

// handler implements pager.Handler: demand paging against the source
// task's memory.
type handler Migration

func (h *handler) mig() *Migration { return (*Migration)(h) }

// PagerInit: destination kernel mapped a region object.
func (h *handler) PagerInit(mo *pager.MemoryObject) {}

// PagerCreate never happens.
func (h *handler) PagerCreate(mo *pager.MemoryObject) {}

// DataRequest serves a demand fault from the source address space.
func (h *handler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	m := h.mig()
	tag, _ := mo.Tag.(*regionTag)
	ps := m.srcTask.Kernel().VM.PageSize()
	if tag == nil || offset >= tag.size {
		_ = mo.DataUnavailable(offset, ps)
		return
	}
	buf := make([]byte, ps)
	if err := m.srcTask.Map.ReadBytes(tag.start+offset, buf); err != nil {
		_ = mo.DataUnavailable(offset, ps)
		return
	}
	m.pagesRequested.Add(1)
	_ = mo.DataProvided(offset, buf, vm.ProtNone)
}

// DataWrite returns a dirty destination page to the source backing store
// (eviction on the destination under memory pressure).
func (h *handler) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	m := h.mig()
	tag, _ := mo.Tag.(*regionTag)
	if tag == nil {
		return
	}
	m.pagesWrittenBack.Add(1)
	_ = m.srcTask.Map.WriteBytes(tag.start+offset, data)
}

// DataUnlock never happens (no locks are used).
func (h *handler) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {}

// PortDeath: the destination kernel dropped a region object.
func (h *handler) PortDeath(mo *pager.MemoryObject) {}
