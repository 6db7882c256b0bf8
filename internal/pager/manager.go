package pager

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/lifecycle"
	"repro/internal/vm"
)

// MemoryObject is a data manager's view of one of its memory objects: the
// port representing the object (held receive), plus — after pager_init or
// pager_create — send rights to the kernel's pager request and name
// ports. When the same object is mapped by several kernels the manager
// sees one MemoryObject per kernel request port, as §3.4.1 specifies.
type MemoryObject struct {
	mgr *Manager

	// Port is the memory object port name in the manager's space.
	Port ipc.Name
	// Request is the pager request port for cache-management calls.
	Request ipc.Name
	// PagerName is the name port the kernel uses in vm_regions output.
	PagerName ipc.Name

	// Tag is free for the handler's use (e.g. the file this object
	// backs).
	Tag any

	// grant holds the frame grant of the pager_data_request being
	// dispatched until ProvideRange claims it; the manager discards a
	// grant the handler left.
	grant atomic.Pointer[vm.FrameGrant]
}

// send transmits a manager-to-kernel call, a pooled message that the
// kernel's service loop releases once it has applied it; a message the
// request port refuses is released here.
func (mo *MemoryObject) send(m *ipc.Message) error {
	m.RemotePort = mo.Request
	err := mo.mgr.Space.Send(m, ipc.SendOptions{})
	if err != nil {
		m.Release()
	}
	return err
}

// DataProvided supplies the kernel with object data
// (pager_data_provided) with an initial lock value. data may be longer
// than what was requested, and may be reused as soon as the call returns.
// This is the copy path: the pages are copied into a pooled message that
// the kernel's service loop recycles after copying them into frames.
// ProvideRange avoids both copies when the request lent its frames.
func (mo *MemoryObject) DataProvided(offset uint64, data []byte, lock vm.Prot) error {
	return mo.send(newMessage(MsgDataProvided, offset, uint64(len(data)), lock, 0, data))
}

// ProvideRange answers a pager_data_request for [offset, offset+length)
// from a page reader: read fills one whole page of the object, or reports
// that the manager holds nothing for it. The longest prefix of the range
// that read supplies goes to the kernel as one pager_data_provided, and
// nothing is said about the rest: the first miss ends the scan, so the
// pages after it are not known to be empty, and the kernel faults again
// for whichever of them it needs. Only when the first page itself — the
// one the kernel waits for — is missing is it reported with
// pager_data_unavailable. A one-page request is answered exactly as by
// hand: one read, then provided or unavailable. ProvideRange returns the
// number of bytes it provided, for a manager that knows what its first
// miss means (past a file's end, nothing exists) and reports the rest
// itself.
//
// When the request being dispatched lent its frames (vm.FrameGrant) and
// the kernel that lent them is on this manager's host, read fills the
// kernel's frames themselves and the answer carries the grant back with a
// header-only payload: the pages are read once and never copied.
// Otherwise they are staged in one pooled buffer and copied into the
// message.
func (mo *MemoryObject) ProvideRange(offset, length, pageSize uint64, read func(offset uint64, page []byte) bool) uint64 {
	if g := mo.takeGrant(offset, pageSize); g != nil {
		length = min(length, uint64(g.Frames())*pageSize)
		got := uint64(0)
		for got+pageSize <= length && read(offset+got, g.Frame(int(got/pageSize))) {
			got += pageSize
		}
		if got == 0 {
			_ = mo.returnGrant(MsgDataUnavailable, offset, pageSize, g)
			return 0
		}
		g.Fill(got)
		_ = mo.returnGrant(MsgDataProvided, offset, got, g)
		return got
	}
	slab := ipc.AllocSlab(int(length))
	defer slab.Release()
	buf := slab.Bytes()
	got := uint64(0)
	for got+pageSize <= length && read(offset+got, buf[got:got+pageSize]) {
		got += pageSize
	}
	if got == 0 {
		_ = mo.DataUnavailable(offset, pageSize)
		return 0
	}
	_ = mo.DataProvided(offset, buf[:got], vm.ProtNone)
	return got
}

// takeGrant claims the frame grant of the request being dispatched if
// ProvideRange can fill it: lent by the kernel on this manager's host — a
// grant never crosses a host — for the range at offset, in pages of
// pageSize. A grant it cannot use stays for the manager to discard.
func (mo *MemoryObject) takeGrant(offset, pageSize uint64) *vm.FrameGrant {
	g := mo.grant.Swap(nil)
	if g == nil {
		return nil
	}
	if g.Host() != mo.mgr.Space.Host() || g.Offset() != offset || uint64(len(g.Frame(0))) != pageSize {
		if !mo.grant.CompareAndSwap(nil, g) {
			g.Discard()
		}
		return nil
	}
	return g
}

// returnGrant sends a filled grant back to the kernel as the answer id
// (pager_data_provided or pager_data_unavailable), with a header-only
// payload. A failed send discards the grant.
func (mo *MemoryObject) returnGrant(id ipc.MsgID, offset, length uint64, g *vm.FrameGrant) error {
	m := newMessage(id, offset, length, vm.ProtNone, 0, nil)
	m.AppendSection(ipc.CarryRegion(g))
	return mo.send(m)
}

// DataLock restricts cache access to the given data (pager_data_lock).
func (mo *MemoryObject) DataLock(offset, length uint64, lock vm.Prot) error {
	return mo.send(newMessage(MsgDataLock, offset, length, lock, 0, nil))
}

// FlushRequest forces cached data to be invalidated
// (pager_flush_request).
func (mo *MemoryObject) FlushRequest(offset, length uint64) error {
	return mo.send(newMessage(MsgFlushRequest, offset, length, 0, 0, nil))
}

// CleanRequest forces cached data to be written back
// (pager_clean_request).
func (mo *MemoryObject) CleanRequest(offset, length uint64) error {
	return mo.send(newMessage(MsgCleanRequest, offset, length, 0, 0, nil))
}

// FlushRequestSync is FlushRequest that blocks until the kernel has
// completed the invalidation (via the MsgLockCompleted acknowledgement).
// It returns the number of pages the kernel wrote back first. Safe to
// call from the manager loop: the acknowledgement is produced by the
// kernel's request-port service thread, which never waits on the manager.
func (mo *MemoryObject) FlushRequestSync(offset, length uint64) (int, error) {
	m := newMessage(MsgFlushRequest, offset, length, 0, 0, nil)
	m.RemotePort = mo.Request
	reply, err := mo.mgr.Space.RPC(m, 10*time.Second, 10*time.Second)
	if err != nil {
		return 0, err
	}
	_, _, _, wrote, _, ok := decodePayload(reply.InlineData())
	if !ok {
		return 0, ipc.ErrInvalidPort
	}
	return int(wrote), nil
}

// FlushRequestAck is FlushRequest with a completion notification: the
// kernel answers with MsgLockCompleted on replyTo once the flush is done,
// its flag byte carrying the number of pages written back first.
// Consistency protocols (§4.2) need this to know when invalidation has
// taken effect.
func (mo *MemoryObject) FlushRequestAck(offset, length uint64, replyTo ipc.Name) error {
	m := newMessage(MsgFlushRequest, offset, length, 0, 0, nil)
	m.LocalPort = replyTo
	return mo.send(m)
}

// Cache tells the kernel whether it may retain cached data after all
// references are gone (pager_cache).
func (mo *MemoryObject) Cache(mayCache bool) error {
	var f byte
	if mayCache {
		f = 1
	}
	return mo.send(newMessage(MsgCache, 0, 0, 0, f, nil))
}

// DataUnavailable notifies the kernel that no data exists for the region
// (pager_data_unavailable): the kernel zero-fills every page of it that a
// fault is waiting for. It is a statement about each page named, so a
// DataRequest handler must not echo the request's length, which may reach
// over pages the manager does hold and other faults are waiting for; name
// the pages known to be empty — failing that, the one page at offset.
func (mo *MemoryObject) DataUnavailable(offset, size uint64) error {
	return mo.send(newMessage(MsgDataUnavailable, offset, size, 0, 0, nil))
}

// Handler is what a data manager implements: the kernel-to-manager calls
// of Table 3-5, delivered by the Manager's service loop.
type Handler interface {
	// PagerInit is called when a kernel maps the object for the first
	// time (pager_init). mo.Request is valid from here on.
	PagerInit(mo *MemoryObject)
	// DataRequest asks for [offset, offset+length); answer with
	// mo.DataProvided or mo.DataUnavailable (pager_data_request), or
	// with mo.ProvideRange, which does both — and reads into the
	// kernel's frames when the request lent them. The kernel waits for the
	// first page only. A length beyond it is a hint — the pages the
	// faulting access is about to touch that the kernel does not
	// cache — and the manager may answer any prefix of the range: a
	// handler that ignores length and answers for one page is correct.
	// One that reports length as unavailable is not (see
	// DataUnavailable): other faults may be waiting inside the hint.
	DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot)
	// DataWrite returns modified data to the manager
	// (pager_data_write). data is valid only for the call: it lies in
	// the message's buffer, which the manager's loop recycles once
	// DataWrite returns, so a handler copies what it keeps.
	DataWrite(mo *MemoryObject, offset uint64, data []byte)
	// DataUnlock reports that a task needs more access than the
	// manager's lock permits; answer with mo.DataLock
	// (pager_data_unlock).
	DataUnlock(mo *MemoryObject, offset, length uint64, desired vm.Prot)
	// PagerCreate asks this manager (normally only the default pager)
	// to accept a kernel-created object (pager_create).
	PagerCreate(mo *MemoryObject)
	// PortDeath reports destruction of the object's request port: the
	// kernel is done with the object (§3.4.1 shutdown, §4.1
	// port_death).
	PortDeath(mo *MemoryObject)
}

// Manager is the service loop of a data-manager task: it receives the
// kernel's calls on the task's memory object ports and dispatches them to
// a Handler.
//
// It receives through one ipc.Loop, the paper's server shape (§4-§5):
// every object port is a member served by the manager, the space's
// notify port is served by Watcher, and the manager's owner adds its own
// ports (an rpc service port, ack ports) with Loop.Serve, each with the
// handler that serves it. The loop releases every message once its
// handler returns, pager calls included.
type Manager struct {
	// Space is the manager task's port name space.
	Space *ipc.Space
	// Handler receives the decoded pager interface calls.
	Handler Handler
	// Loop is the manager task's receive point.
	Loop *ipc.Loop
	// Watcher is the space's lifecycle watcher, the handler of its
	// notify port in Loop. The manager registers each kernel's request
	// port with it, and the owner its own notifications.
	Watcher *lifecycle.Watcher

	// serveObject and requestDied are the manager's loop handler and
	// port-death callback, bound once so that adopting an object port or
	// registering a request port makes no closure.
	serveObject ipc.Handler
	requestDied func(ipc.Name)

	mu        sync.Mutex
	byPort    map[ipc.Name]*MemoryObject // memory object port -> object
	byRequest map[ipc.Name]*MemoryObject // request port -> object
}

// NewManager wraps a space and handler into a manager service loop
// context, with the space's notify port served by its Watcher. Call Run
// (usually in its own goroutine) to start serving.
func NewManager(space *ipc.Space, h Handler) *Manager {
	m := &Manager{
		Space:     space,
		Handler:   h,
		Loop:      ipc.NewLoop(space),
		Watcher:   lifecycle.New(space),
		byPort:    make(map[ipc.Name]*MemoryObject),
		byRequest: make(map[ipc.Name]*MemoryObject),
	}
	m.serveObject, m.requestDied = m.serve, m.portDeath
	// Fails only on a dead space, where Run returns at once.
	_ = m.Watcher.ServeOn(m.Loop)
	return m
}

// Adopt moves a receive right the kernel sends pager calls to (a memory
// object port, the default pager's bootstrap port) into the manager's
// loop.
func (m *Manager) Adopt(n ipc.Name) error {
	return m.Loop.Serve(n, m.serveObject)
}

// NewObject allocates a fresh memory object port, moves it into the
// manager's loop, and registers it. The returned MemoryObject has no
// request port until a kernel maps it (PagerInit). The send right to
// hand to clients is the Port name.
func (m *Manager) NewObject(tag any) (*MemoryObject, error) {
	n, err := m.Space.AllocatePort()
	if err != nil {
		return nil, err
	}
	if err := m.Adopt(n); err != nil {
		return nil, err
	}
	mo := &MemoryObject{mgr: m, Port: n, Tag: tag}
	m.mu.Lock()
	m.byPort[n] = mo
	m.mu.Unlock()
	return mo, nil
}

// RequestPortReady reports whether pager_init has arrived for mo (its
// Request name is set). Safe to call from outside the service loop.
func (m *Manager) RequestPortReady(mo *MemoryObject) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return mo.Request != 0
}

// Object returns the memory object registered under a port name.
func (m *Manager) Object(port ipc.Name) (*MemoryObject, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mo, ok := m.byPort[port]
	return mo, ok
}

// Remove forgets a memory object and deallocates its ports.
func (m *Manager) Remove(mo *MemoryObject) {
	m.mu.Lock()
	delete(m.byPort, mo.Port)
	if mo.Request != 0 {
		delete(m.byRequest, mo.Request)
	}
	m.mu.Unlock()
	_ = m.Space.DeallocatePort(mo.Port)
	if mo.Request != 0 {
		m.Watcher.OnPortDeath(mo.Request, nil)
		_ = m.Space.DeallocatePort(mo.Request)
	}
	if mo.PagerName != 0 {
		_ = m.Space.DeallocatePort(mo.PagerName)
	}
}

// Run serves the manager's loop on the calling goroutine until Stop or
// Quiesce, until the space is destroyed, or until the loop has no member
// left — nothing can arrive then.
func (m *Manager) Run() { m.Loop.Run(1) }

// Stop destroys the manager's space and waits for Run to finish the
// message it is serving and return.
func (m *Manager) Stop() {
	m.Space.Destroy()
	m.Loop.Stop()
}

// Quiesce stops the loop without destroying the space, so the rights
// the manager's owner still holds — the reply ports of requests it
// answers later — stay usable until Stop. Like Stop, it waits for Run
// to return.
func (m *Manager) Quiesce() { m.Loop.Stop() }

// serve is the loop handler of every memory object port: it routes one
// kernel call to the Handler. The Handler only ever sees the decoded
// arguments, and the loop releases the message once serve returns.
func (m *Manager) serve(msg *ipc.Message) bool {
	switch msg.ID {
	case MsgPagerInit:
		m.handleInit(msg, false)
	case MsgPagerCreate:
		m.handleInit(msg, true)
	case MsgDataRequest, MsgDataWrite, MsgDataUnlock:
		m.kernelCall(msg)
	}
	return false
}

// portDeath is the Watcher callback for a kernel's request port: only
// the request-port registration is dropped here, because a
// pager_data_write queued on the object port may still be in flight
// (kernel calls are asynchronous), so the object stays registered until
// the handler Removes it.
func (m *Manager) portDeath(dead ipc.Name) {
	m.mu.Lock()
	mo := m.byRequest[dead]
	delete(m.byRequest, dead)
	m.mu.Unlock()
	if mo != nil {
		m.Handler.PortDeath(mo)
	}
}

// kernelCall decodes one of the kernel's pager_data_request,
// pager_data_write and pager_data_unlock calls and hands it to the
// handler. A call for no known object, or with a short payload, is
// dropped, and the frame grant it lent given back.
func (m *Manager) kernelCall(msg *ipc.Message) {
	// Only pager_data_request carries a frame grant.
	grant, _ := msg.FirstRegion().(*vm.FrameGrant)
	// pager_data_request and pager_data_unlock identify the calling
	// kernel by its pager request port (Table 3-5); the right travels in
	// the message and resolves to the name installed at pager_init time.
	m.mu.Lock()
	var mo *MemoryObject
	for i := range msg.Sections {
		if msg.Sections[i].Kind == ipc.PortRightSection {
			mo = m.byRequest[msg.Sections[i].PortName]
			break
		}
	}
	if mo == nil {
		mo = m.byPort[msg.LocalPort]
	}
	m.mu.Unlock()
	offset, length, prot, _, data, ok := decodePayload(msg.InlineData())
	if mo == nil || !ok {
		if grant != nil {
			grant.Discard()
		}
		return
	}
	switch msg.ID {
	case MsgDataRequest:
		m.dataRequest(mo, offset, length, prot, grant)
	case MsgDataWrite:
		m.Handler.DataWrite(mo, offset, data)
	case MsgDataUnlock:
		m.Handler.DataUnlock(mo, offset, length, prot)
	}
}

// dataRequest hands pager_data_request to the handler. The frame grant
// the request lent, if any, waits on mo for the handler's ProvideRange to
// claim; a grant the handler leaves is discarded, and the handler's
// answer takes the copy path.
func (m *Manager) dataRequest(mo *MemoryObject, offset, length uint64, prot vm.Prot, grant *vm.FrameGrant) {
	if grant != nil {
		if old := mo.grant.Swap(grant); old != nil {
			old.Discard()
		}
	}
	m.Handler.DataRequest(mo, offset, length, prot)
	if grant != nil && mo.grant.CompareAndSwap(grant, nil) {
		grant.Discard()
	}
}

// handleInit processes pager_init and pager_create, which differ only in
// that pager_create also carries the memory object port's receive right
// (the object is kernel-created).
func (m *Manager) handleInit(msg *ipc.Message, create bool) {
	var rights []ipc.Name
	for i := range msg.Sections {
		if msg.Sections[i].Kind == ipc.PortRightSection {
			rights = append(rights, msg.Sections[i].PortName)
		}
	}
	var mo *MemoryObject
	if create {
		// [object receive right, request right, name right]
		if len(rights) < 3 {
			return
		}
		mo = &MemoryObject{mgr: m, Port: rights[0], Request: rights[1], PagerName: rights[2]}
		if err := m.Adopt(mo.Port); err != nil {
			return
		}
		m.mu.Lock()
		m.byPort[mo.Port] = mo
		m.byRequest[mo.Request] = mo
		m.mu.Unlock()
		m.Watcher.OnPortDeath(mo.Request, m.requestDied)
		m.Handler.PagerCreate(mo)
		return
	}
	// pager_init: [request right, name right]; arrived on the memory
	// object port itself.
	if len(rights) < 2 {
		return
	}
	m.mu.Lock()
	mo = m.byPort[msg.LocalPort]
	if mo != nil {
		if mo.Request != 0 {
			// A second kernel mapping the same object: per §3.4.1,
			// each kernel has distinct request/name ports; track it
			// as a sibling MemoryObject sharing the port and tag.
			sib := &MemoryObject{mgr: m, Port: mo.Port, Request: rights[0], PagerName: rights[1], Tag: mo.Tag}
			m.byRequest[sib.Request] = sib
			m.mu.Unlock()
			m.Watcher.OnPortDeath(sib.Request, m.requestDied)
			m.Handler.PagerInit(sib)
			return
		}
		mo.Request, mo.PagerName = rights[0], rights[1]
		m.byRequest[mo.Request] = mo
	}
	m.mu.Unlock()
	if mo != nil {
		m.Watcher.OnPortDeath(mo.Request, m.requestDied)
		m.Handler.PagerInit(mo)
	}
}

// NopHandler is a Handler with empty implementations, for embedding by
// managers that only need part of the interface (the paper's "minimal
// subset" filesystem never sees DataWrite or DataUnlock).
type NopHandler struct{}

// PagerInit implements Handler.
func (NopHandler) PagerInit(*MemoryObject) {}

// DataRequest implements Handler.
func (NopHandler) DataRequest(*MemoryObject, uint64, uint64, vm.Prot) {}

// DataWrite implements Handler.
func (NopHandler) DataWrite(*MemoryObject, uint64, []byte) {}

// DataUnlock implements Handler.
func (NopHandler) DataUnlock(*MemoryObject, uint64, uint64, vm.Prot) {}

// PagerCreate implements Handler.
func (NopHandler) PagerCreate(*MemoryObject) {}

// PortDeath implements Handler.
func (NopHandler) PortDeath(*MemoryObject) {}
