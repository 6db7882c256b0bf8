// Package netmem implements the consistent network shared memory service
// of §4.2: a data manager that gives clients on different hosts
// (different kernels) read/write-consistent shared memory regions using
// only the external memory management interface.
//
// The protocol is the single-writer/multiple-reader page-ownership scheme
// the paper describes (and attributes to Li's network shared virtual
// memory): read faults are served with a write lock applied
// (pager_data_provided with lock=write); a write attempt triggers
// pager_data_unlock, upon which the server invalidates every other use of
// the page with pager_flush_request and then grants write access with
// pager_data_lock. Invalidation completion is detected with the flush
// acknowledgement (MsgLockCompleted, Mach 3's
// memory_object_lock_completed).
//
// The server is a single event loop: every kernel's calls, write-backs
// and flush acknowledgements arrive as messages, so the per-page state
// machine needs no further locking.
package netmem

import (
	"errors"
	"sync"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// The service wire protocol — message IDs, payload codecs, the typed
// client and the server demux — is generated from the interface
// definition in internal/idl/defs/netmem.go (zz_generated_machgen.go).
// Flush acknowledgements ride the pager protocol, not this one.

// Errors returned by the client library.
var (
	// ErrNoRegion: no region by that name.
	ErrNoRegion = errors.New("netmem: region not found")
	// ErrExists: region name already in use.
	ErrExists = errors.New("netmem: region exists")
	// ErrServer: malformed reply.
	ErrServer = errors.New("netmem: server error")
)

// Stats counts protocol activity, the quantities experiment E5 reports.
type Stats struct {
	// ReadServes counts pages provided read-only.
	ReadServes int64
	// WriteGrants counts exclusive (write) grants.
	WriteGrants int64
	// Invalidations counts pager_flush_request rounds sent to revoke a
	// page from a kernel.
	Invalidations int64
	// WriteBacks counts dirty pages returned by kernels.
	WriteBacks int64
	// RegionReaps counts regions reclaimed by the no-senders machinery:
	// the last attachment right disappeared (an explicit detach, or a
	// client task dying with it), so the region and its master copy
	// were released.
	RegionReaps int64
}

// pageState is the ownership state machine for one page of a region.
type pageState struct {
	data    []byte
	readers map[*pager.MemoryObject]bool
	writer  *pager.MemoryObject

	// transition bookkeeping: outstanding flush acks and expected
	// write-backs before the transition can complete.
	acksOut    int
	writesExp  int
	writesSeen int
	waiters    []pendingEvent
}

func (p *pageState) inTransition() bool { return p.acksOut > 0 || p.writesSeen < p.writesExp }

type eventKind uint8

const (
	evRead eventKind = iota
	evWrite
	evUnlock
)

type pendingEvent struct {
	kind eventKind
	mo   *pager.MemoryObject
	off  uint64
}

// region is one named shared memory segment.
type region struct {
	name    string
	size    uint64
	object  *pager.MemoryObject // the original object port
	ackPort ipc.Name
	pages   map[uint64]*pageState
}

// Server is the shared memory data manager task.
type Server struct {
	kernel *kern.Kernel
	task   *kern.Task
	mgr    *pager.Manager
	rpc    *rpc.Server

	mu       sync.Mutex
	regions  map[string]*region
	byObject map[ipc.Name]*region
	stats    Stats

	// ServicePort receives client create/attach requests.
	ServicePort ipc.Name
}

// NewServer creates a shared memory server task on kernel k. The server
// may live on any host of the complex; clients attach from any kernel
// sharing the topology.
func NewServer(k *kern.Kernel) (*Server, error) {
	s := &Server{
		kernel:   k,
		task:     k.NewTask(),
		regions:  make(map[string]*region),
		byObject: make(map[ipc.Name]*region),
	}
	s.mgr = pager.NewManager(s.task.Space, (*handler)(s))
	srv, err := rpc.NewServer(s.task.Space)
	if err != nil {
		return nil, err
	}
	RegisterNetMemServer(srv, (*service)(s))
	s.rpc = srv
	s.ServicePort = srv.Port
	// Service requests share the manager's loop with the pager calls,
	// the regions' flush acknowledgements and the lifecycle
	// notifications (region no-senders).
	if err := s.mgr.Loop.Serve(srv.Port, srv.Serve); err != nil {
		return nil, err
	}
	return s, nil
}

// Run starts the server loop.
func (s *Server) Run() { s.mgr.Run() }

// Stop terminates the server.
func (s *Server) Stop() { s.mgr.Stop() }

// Stats returns a snapshot of protocol counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Publish installs a send right for the service port into a client task.
func (s *Server) Publish(client *kern.Task) (ipc.Name, error) {
	return s.task.Space.CopySendRight(client.Space, s.ServicePort)
}

func (s *Server) pageSize() uint64 { return s.kernel.VM.PageSize() }

// --- service protocol ------------------------------------------------------

// service implements the generated NetMemServerAPI against the server's
// state; RegisterNetMemServer demuxes and decodes, these methods act.
type service Server

// CreateRegion creates a named shared region.
func (h *service) CreateRegion(m *ipc.Message, in *CreateRegionRequest) error {
	s := (*Server)(h)
	s.mu.Lock()
	_, exists := s.regions[in.Name]
	s.mu.Unlock()
	if exists {
		return rpc.Errf(rpc.StatusExists, "netmem: region %q exists", in.Name)
	}
	return s.createRegion(in.Name, in.Size)
}

func (s *Server) createRegion(name string, size uint64) error {
	ps := s.pageSize()
	size = (size + ps - 1) / ps * ps
	r := &region{name: name, size: size, pages: make(map[uint64]*pageState)}
	mo, err := s.mgr.NewObject(r)
	if err != nil {
		return err
	}
	r.object = mo
	ack, err := s.task.Space.AllocatePort()
	if err != nil {
		return err
	}
	if err := s.mgr.Loop.Serve(ack, func(m *ipc.Message) bool {
		s.flushAck(r, m)
		return false
	}); err != nil {
		return err
	}
	r.ackPort = ack
	s.mu.Lock()
	s.regions[name] = r
	s.byObject[mo.Port] = r
	s.mu.Unlock()
	return nil
}

// CreateRegion creates a region server-side (convenience for examples and
// tests; clients normally use the Create RPC).
func (s *Server) CreateRegion(name string, size uint64) error {
	s.mu.Lock()
	_, exists := s.regions[name]
	s.mu.Unlock()
	if exists {
		return ErrExists
	}
	return s.createRegion(name, size)
}

// AttachRegion hands out a region's memory-object right and size.
func (h *service) AttachRegion(m *ipc.Message, in *AttachRegionRequest) (*AttachRegionReply, error) {
	s := (*Server)(h)
	s.mu.Lock()
	r := s.regions[in.Name]
	s.mu.Unlock()
	if r == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "netmem: no region %q", in.Name)
	}
	// Detach-on-death: the attachment right carried in this reply (and
	// every later copy of it) is what keeps the region alive. Arming at
	// attach time — never at create — means a region lives until it has
	// been attached at least once and every attachment right has died,
	// whether by explicit deallocation or the client task's death.
	if err := s.mgr.Watcher.OnNoSenders(r.object.Port, s.reapRegion); err != nil {
		return nil, err
	}
	return &AttachRegionReply{Size: r.size, Object: r.object.Port}, nil
}

// reapRegion runs on the manager loop when a region's last attachment
// right dies: the region, its master copy and its ports are released.
// A client that still maps the region after dropping its right sees
// memory failure on its next fault, the documented consequence of
// detaching while mapped.
func (s *Server) reapRegion(n ipc.Name) {
	s.mu.Lock()
	r := s.byObject[n]
	if r != nil {
		delete(s.byObject, n)
		delete(s.regions, r.name)
		s.stats.RegionReaps++
	}
	s.mu.Unlock()
	if r == nil {
		return
	}
	s.mgr.Remove(r.object)
	_ = s.task.Space.DeallocatePort(r.ackPort)
}

// --- pager event handling ---------------------------------------------------

// handler implements pager.Handler for the server; all methods run on the
// single manager loop goroutine.
type handler Server

func (h *handler) srv() *Server { return (*Server)(h) }

func (h *handler) regionOf(mo *pager.MemoryObject) *region {
	r, _ := mo.Tag.(*region)
	return r
}

// PagerInit: a kernel mapped the region; §4.2: "The shared memory server
// records each use of X, and the pager request and name ports for those
// uses." Sibling MemoryObjects are created by the manager library per
// kernel; nothing more to do.
func (h *handler) PagerInit(mo *pager.MemoryObject) {}

// PagerCreate never happens.
func (h *handler) PagerCreate(mo *pager.MemoryObject) {}

func (h *handler) page(r *region, off uint64) *pageState {
	p := r.pages[off]
	if p == nil {
		p = &pageState{
			data:    make([]byte, h.srv().pageSize()),
			readers: make(map[*pager.MemoryObject]bool),
		}
		r.pages[off] = p
	}
	return p
}

// DataRequest: a kernel faulted on a page it does not cache.
func (h *handler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	r := h.regionOf(mo)
	if r == nil {
		_ = mo.DataUnavailable(offset, h.srv().pageSize())
		return
	}
	p := h.page(r, offset)
	kind := evRead
	if desired&vm.ProtWrite != 0 {
		kind = evWrite
	}
	h.dispatch(r, p, pendingEvent{kind: kind, mo: mo, off: offset})
}

// DataUnlock: a kernel's task wants more access to a cached page.
func (h *handler) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	r := h.regionOf(mo)
	if r == nil {
		return
	}
	p := h.page(r, offset)
	h.dispatch(r, p, pendingEvent{kind: evUnlock, mo: mo, off: offset})
}

// DataWrite: a kernel returned modified data (flush write-back or
// eviction). The master copy is updated; during a transition it also
// counts toward completion.
func (h *handler) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	s := h.srv()
	r := h.regionOf(mo)
	if r == nil {
		return
	}
	p := h.page(r, offset)
	copy(p.data, data)
	s.mu.Lock()
	s.stats.WriteBacks++
	s.mu.Unlock()
	if p.inTransition() {
		p.writesSeen++
		h.completeIfDone(r, p)
	}
}

// PortDeath: a kernel dropped its last mapping of the region; forget its
// page holdings.
func (h *handler) PortDeath(mo *pager.MemoryObject) {
	r := h.regionOf(mo)
	if r == nil {
		return
	}
	for _, p := range r.pages {
		delete(p.readers, mo)
		if p.writer == mo {
			p.writer = nil
		}
	}
}

// flushAck handles a message on region r's ack port: the kernel finished
// processing an invalidation. It is a one-way notification (no reply is
// ever sent).
func (s *Server) flushAck(r *region, m *ipc.Message) {
	if m.ID != pager.MsgLockCompleted {
		return
	}
	offset, _, _, wrote, _, ok := pager.DecodePayload(m.InlineData())
	if !ok {
		return
	}
	p := r.pages[offset]
	if p == nil {
		return
	}
	p.acksOut--
	p.writesExp += int(wrote)
	(*handler)(s).completeIfDone(r, p)
}

// dispatch runs one event against the page state machine, deferring it if
// the page is mid-transition.
func (h *handler) dispatch(r *region, p *pageState, ev pendingEvent) {
	if p.inTransition() {
		p.waiters = append(p.waiters, ev)
		return
	}
	s := h.srv()
	ps := s.pageSize()
	// Each serve or grant is counted before it is sent: the faulting
	// task can return, and read the stats, as soon as its kernel
	// applies the answer.
	switch ev.kind {
	case evRead:
		if p.writer != nil && p.writer != ev.mo {
			// "Before allowing read access the server must flush the
			// writer" — revoke, wait for write-back, then serve.
			h.invalidate(r, p, ev.off, p.writer)
			p.writer = nil
			p.waiters = append(p.waiters, ev)
			return
		}
		if p.writer == ev.mo {
			// The writer re-faulting after eviction keeps its grant.
			_ = ev.mo.DataProvided(ev.off, p.data, vm.ProtNone)
			return
		}
		// Multiple readers allowed: provide with a write lock (§4.2
		// "the server applies a write lock on the data as it is
		// returned").
		s.mu.Lock()
		s.stats.ReadServes++
		s.mu.Unlock()
		p.readers[ev.mo] = true
		_ = ev.mo.DataProvided(ev.off, p.data, vm.ProtWrite)
	case evWrite:
		// A write fault on an uncached page: revoke everyone, then
		// provide with no lock.
		revoked := false
		for reader := range p.readers {
			if reader != ev.mo {
				h.invalidate(r, p, ev.off, reader)
				revoked = true
			}
			delete(p.readers, reader)
		}
		if p.writer != nil && p.writer != ev.mo {
			h.invalidate(r, p, ev.off, p.writer)
			p.writer = nil
			revoked = true
		}
		if revoked {
			p.waiters = append(p.waiters, ev)
			return
		}
		s.mu.Lock()
		s.stats.WriteGrants++
		s.mu.Unlock()
		p.writer = ev.mo
		_ = ev.mo.DataProvided(ev.off, p.data, vm.ProtNone)
	case evUnlock:
		// A reader wants to write its cached copy: invalidate all the
		// OTHER uses, then grant with pager_data_lock (§4.2's final
		// frame).
		revoked := false
		for reader := range p.readers {
			if reader != ev.mo {
				h.invalidate(r, p, ev.off, reader)
				delete(p.readers, reader)
				revoked = true
			}
		}
		if p.writer != nil && p.writer != ev.mo {
			h.invalidate(r, p, ev.off, p.writer)
			p.writer = nil
			revoked = true
		}
		if revoked {
			p.waiters = append(p.waiters, ev)
			return
		}
		s.mu.Lock()
		s.stats.WriteGrants++
		s.mu.Unlock()
		delete(p.readers, ev.mo)
		p.writer = ev.mo
		_ = ev.mo.DataLock(ev.off, ps, vm.ProtNone)
	}
}

// invalidate revokes one kernel's use of a page with
// pager_flush_request, expecting an acknowledgement.
func (h *handler) invalidate(r *region, p *pageState, off uint64, mo *pager.MemoryObject) {
	s := h.srv()
	_ = mo.FlushRequestAck(off, s.pageSize(), r.ackPort)
	p.acksOut++
	s.mu.Lock()
	s.stats.Invalidations++
	s.mu.Unlock()
}

// completeIfDone finishes a transition and replays deferred events.
func (h *handler) completeIfDone(r *region, p *pageState) {
	if p.inTransition() {
		return
	}
	p.writesExp, p.writesSeen = 0, 0
	for len(p.waiters) > 0 {
		ev := p.waiters[0]
		p.waiters = p.waiters[1:]
		h.dispatch(r, p, ev)
		if p.inTransition() {
			return
		}
	}
}
