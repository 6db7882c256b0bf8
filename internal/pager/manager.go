package pager

import (
	"bytes"
	"runtime"
	"sync"
	"time"

	"repro/internal/ipc"
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
}

// send transmits a manager-to-kernel call on the request port.
func (mo *MemoryObject) send(id ipc.MsgID, payload []byte) error {
	return mo.mgr.Space.Send(&ipc.Message{
		ID:         id,
		RemotePort: mo.Request,
		Sections:   []ipc.Section{ipc.InlineBytes(payload)},
	}, ipc.SendOptions{})
}

// DataProvided supplies the kernel with object data
// (pager_data_provided) with an initial lock value. data may be longer
// than what was requested, and may be reused as soon as the call returns:
// the pages are copied once, into a pooled message that the kernel's
// service loop recycles after applying it.
func (mo *MemoryObject) DataProvided(offset uint64, data []byte, lock vm.Prot) error {
	m := ipc.GetMessage()
	m.ID = MsgDataProvided
	m.RemotePort = mo.Request
	m.InlineCopy(encodePayload(offset, uint64(len(data)), lock, 0, nil), data)
	err := mo.mgr.Space.Send(m, ipc.SendOptions{})
	if err != nil {
		m.Release()
	}
	return err
}

// ProvideRange answers a pager_data_request for [offset, offset+length)
// from a page reader: read fills one page of the object, or reports that
// the manager holds nothing for it. The longest prefix of the range that
// read supplies goes to the kernel as one pager_data_provided, staged in
// one pooled buffer, and nothing is said about the rest: the first miss
// ends the scan, so the pages after it are not known to be empty, and the
// kernel faults again for whichever of them it needs. Only when the first
// page itself — the one the kernel waits for — is missing is it reported
// with pager_data_unavailable. A one-page request is answered exactly as
// by hand: one read, then provided or unavailable. ProvideRange returns
// the number of bytes it provided, for a manager that knows what its
// first miss means (past a file's end, nothing exists) and reports the
// rest itself.
func (mo *MemoryObject) ProvideRange(offset, length, pageSize uint64, read func(offset uint64, page []byte) bool) uint64 {
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

// DataLock restricts cache access to the given data (pager_data_lock).
func (mo *MemoryObject) DataLock(offset, length uint64, lock vm.Prot) error {
	return mo.send(MsgDataLock, encodePayload(offset, length, lock, 0, nil))
}

// FlushRequest forces cached data to be invalidated
// (pager_flush_request).
func (mo *MemoryObject) FlushRequest(offset, length uint64) error {
	return mo.send(MsgFlushRequest, encodePayload(offset, length, 0, 0, nil))
}

// CleanRequest forces cached data to be written back
// (pager_clean_request).
func (mo *MemoryObject) CleanRequest(offset, length uint64) error {
	return mo.send(MsgCleanRequest, encodePayload(offset, length, 0, 0, nil))
}

// FlushRequestSync is FlushRequest that blocks until the kernel has
// completed the invalidation (via the MsgLockCompleted acknowledgement).
// It returns the number of pages the kernel wrote back first. Safe to
// call from the manager loop: the acknowledgement is produced by the
// kernel's request-port service thread, which never waits on the manager.
func (mo *MemoryObject) FlushRequestSync(offset, length uint64) (int, error) {
	reply, err := mo.mgr.Space.RPC(&ipc.Message{
		ID:         MsgFlushRequest,
		RemotePort: mo.Request,
		Sections:   []ipc.Section{ipc.InlineBytes(encodePayload(offset, length, 0, 0, nil))},
	}, 10*time.Second, 10*time.Second)
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
	return mo.mgr.Space.Send(&ipc.Message{
		ID:         MsgFlushRequest,
		RemotePort: mo.Request,
		LocalPort:  replyTo,
		Sections:   []ipc.Section{ipc.InlineBytes(encodePayload(offset, length, 0, 0, nil))},
	}, ipc.SendOptions{})
}

// Cache tells the kernel whether it may retain cached data after all
// references are gone (pager_cache).
func (mo *MemoryObject) Cache(mayCache bool) error {
	var f byte
	if mayCache {
		f = 1
	}
	return mo.send(MsgCache, encodePayload(0, 0, 0, f, nil))
}

// DataUnavailable notifies the kernel that no data exists for the region
// (pager_data_unavailable): the kernel zero-fills every page of it that a
// fault is waiting for. It is a statement about each page named, so a
// DataRequest handler must not echo the request's length, which may reach
// over pages the manager does hold and other faults are waiting for; name
// the pages known to be empty — failing that, the one page at offset.
func (mo *MemoryObject) DataUnavailable(offset, size uint64) error {
	return mo.send(MsgDataUnavailable, encodePayload(offset, size, 0, 0, nil))
}

// Handler is what a data manager implements: the kernel-to-manager calls
// of Table 3-5, delivered by the Manager's service loop.
type Handler interface {
	// PagerInit is called when a kernel maps the object for the first
	// time (pager_init). mo.Request is valid from here on.
	PagerInit(mo *MemoryObject)
	// DataRequest asks for [offset, offset+length); answer with
	// mo.DataProvided or mo.DataUnavailable (pager_data_request), or
	// with mo.ProvideRange, which does both. The kernel waits for the
	// first page only. A length beyond it is a hint — the pages the
	// faulting access is about to touch that the kernel does not
	// cache — and the manager may answer any prefix of the range: a
	// handler that ignores length and answers for one page is correct.
	// One that reports length as unavailable is not (see
	// DataUnavailable): other faults may be waiting inside the hint.
	DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot)
	// DataWrite returns modified data to the manager
	// (pager_data_write).
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
// a Handler. Application-level messages (anything that is not a pager
// call) go to Default.
//
// The loop receives on one port set, the paper's server shape (§4-§5):
// the space's notify port, every object port, and whatever the owner
// Adopts (an embedded rpc service port, an ack port) are its members,
// drained with fair round-robin so a flooded port cannot starve the
// rest.
type Manager struct {
	// Space is the manager task's port name space.
	Space *ipc.Space
	// Handler receives the decoded pager interface calls.
	Handler Handler
	// Default, if set, receives non-pager messages (the manager task's
	// own service protocol).
	Default func(*ipc.Message)

	// set is the port set Run receives on; zero only when the space
	// was already dead at NewManager.
	set ipc.Name

	mu        sync.Mutex
	byPort    map[ipc.Name]*MemoryObject // memory object port -> object
	byRequest map[ipc.Name]*MemoryObject // request port -> object
	// stopped keeps a Run that starts after Stop or Quiesce from
	// serving; a running loop learns of either from its receive.
	stopped bool
	// done is closed when Run returns, and loop is the goroutine running
	// it; both are zero until Run starts. Stop and Quiesce wait on done
	// unless the loop itself calls them.
	done chan struct{}
	loop uint64
}

// NewManager wraps a space and handler into a manager service loop
// context and moves the space's notify port into the loop's port set.
// Call Run (usually in its own goroutine) to start serving.
func NewManager(space *ipc.Space, h Handler) *Manager {
	m := &Manager{
		Space:     space,
		Handler:   h,
		byPort:    make(map[ipc.Name]*MemoryObject),
		byRequest: make(map[ipc.Name]*MemoryObject),
	}
	// Both calls fail only on a dead space, where Run returns at once.
	if set, err := space.AllocatePortSet(); err == nil {
		m.set = set
		_ = space.MoveToPortSet(set, space.NotifyPort())
	}
	return m
}

// Adopt moves a receive right (a service port, an ack port) into the
// manager's port set so its messages reach the Run loop.
func (m *Manager) Adopt(n ipc.Name) error {
	return m.Space.MoveToPortSet(m.set, n)
}

// NewObject allocates a fresh memory object port, moves it into the
// manager's port set, and registers it. The returned MemoryObject has no
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
		_ = m.Space.DeallocatePort(mo.Request)
	}
	if mo.PagerName != 0 {
		_ = m.Space.DeallocatePort(mo.PagerName)
	}
}

// Stop makes Run return, destroys the manager's space and waits for
// Run to finish the message it is serving.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.Space.Destroy()
	m.join()
}

// Quiesce makes Run return without destroying the space, so the rights
// the manager's owner still holds — the reply ports of requests it
// answers later — stay usable until Stop. Destroying the port set is
// what wakes a blocked Run. Like Stop, it waits for Run to return.
func (m *Manager) Quiesce() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	_ = m.Space.DeallocatePort(m.set) // fails only if the space already died, which ends Run too
	m.join()
}

// join waits for a started Run to return. A handler that stops its own
// manager runs on the loop's goroutine and must not wait for itself.
func (m *Manager) join() {
	m.mu.Lock()
	done, loop := m.done, m.loop
	m.mu.Unlock()
	if done != nil && loop != goid() {
		<-done
	}
}

// goid returns the calling goroutine's id, read from the header line of
// its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id := uint64(0)
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Run is the manager service loop: it receives on the manager's port set
// and dispatches pager calls to the Handler. It returns after Stop or
// Quiesce, when the space is destroyed, or when the set has no member
// left — nothing can arrive then.
func (m *Manager) Run() {
	done := make(chan struct{})
	defer close(done)
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.done, m.loop = done, goid()
	m.mu.Unlock()
	for {
		msg, err := m.Space.Receive(m.set, ipc.ReceiveOptions{})
		if err != nil {
			return
		}
		m.Dispatch(msg)
	}
}

// Dispatch routes one received message. Exposed so tasks that run their
// own receive loop can still use the pager machinery.
func (m *Manager) Dispatch(msg *ipc.Message) {
	switch msg.ID {
	case MsgPagerInit:
		m.handleInit(msg, false)
	case MsgPagerCreate:
		m.handleInit(msg, true)
	case MsgDataRequest, MsgDataWrite, MsgDataUnlock:
		// pager_data_request and pager_data_unlock identify the calling
		// kernel by its pager request port (Table 3-5); the right
		// travels in the message and resolves to the name installed at
		// pager_init time.
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
		if mo == nil {
			return
		}
		offset, length, prot, _, data, ok := decodePayload(msg.InlineData())
		if !ok {
			return
		}
		switch msg.ID {
		case MsgDataRequest:
			m.Handler.DataRequest(mo, offset, length, prot)
		case MsgDataWrite:
			m.Handler.DataWrite(mo, offset, data)
		case MsgDataUnlock:
			m.Handler.DataUnlock(mo, offset, length, prot)
		}
	case ipc.MsgIDPortDeleted:
		dead := ipc.DecodeName(msg.InlineData())
		m.mu.Lock()
		mo := m.byRequest[dead]
		if mo != nil {
			// Only the request-port registration is dropped here: a
			// pager_data_write queued on the object port may still be
			// in flight (kernel calls are asynchronous), so the
			// object stays registered until the handler Removes it.
			delete(m.byRequest, dead)
		}
		m.mu.Unlock()
		if mo != nil {
			m.Handler.PortDeath(mo)
		} else if m.Default != nil {
			m.Default(msg)
		}
	default:
		if m.Default != nil {
			m.Default(msg)
		}
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
			m.Handler.PagerInit(sib)
			return
		}
		mo.Request, mo.PagerName = rights[0], rights[1]
		m.byRequest[mo.Request] = mo
	}
	m.mu.Unlock()
	if mo != nil {
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
