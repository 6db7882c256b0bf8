package pager

import (
	"sync"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/vm"
)

// ObjectCache is the kernel side of the external memory interface: the
// table mapping memory object ports to internal memory object structures
// (§5.1 "the Mach kernel looks up the given memory object port,
// attempting to find an associated internal memory object structure; if
// none exists, a new internal structure is created, and the pager_init
// call performed").
//
// It owns, per object, the pager request port and pager name port, runs
// the kernel service loop that turns manager-to-kernel messages into
// vm.System calls, and implements the pager_create flow that hands
// kernel-created objects to the default pager.
type ObjectCache struct {
	sys  *vm.System
	host machine.HostID
	topo *machine.Topology

	mu               sync.RWMutex
	objects          map[*ipc.Port]*vm.Object
	defaultPagerPort *ipc.Port
}

// NewObjectCache creates the kernel-side object table for one host.
func NewObjectCache(sys *vm.System, host machine.HostID, topo *machine.Topology) *ObjectCache {
	return &ObjectCache{
		sys:     sys,
		host:    host,
		topo:    topo,
		objects: make(map[*ipc.Port]*vm.Object),
	}
}

// SetDefaultPagerPort installs the port the default pager task provides
// for pager_create calls (known to the kernel at system initialization
// time, §3.4.1).
func (c *ObjectCache) SetDefaultPagerPort(p *ipc.Port) {
	c.mu.Lock()
	c.defaultPagerPort = p
	c.mu.Unlock()
}

// Lookup resolves a memory object port to the kernel's internal object
// structure, creating it — and sending pager_init — on first use. minSize
// grows the object if the new mapping extends past its current size.
// Repeat lookups (every vm_allocate_with_pager after the first) take only
// the read lock, so concurrent mappers do not serialize on the table.
func (c *ObjectCache) Lookup(moPort *ipc.Port, minSize uint64) *vm.Object {
	c.mu.RLock()
	obj, ok := c.objects[moPort]
	c.mu.RUnlock()
	if ok {
		c.sys.GrowObject(obj, minSize)
		return obj
	}
	c.mu.Lock()
	if obj, ok := c.objects[moPort]; ok {
		c.mu.Unlock()
		c.sys.GrowObject(obj, minSize)
		return obj
	}
	rp := &remotePager{cache: c, moPort: moPort}
	rp.req = ipc.NewRawPort(c.host)
	rp.name = ipc.NewRawPort(c.host)
	obj = c.sys.NewExternalObject(rp, minSize)
	obj.PagerPort = moPort
	obj.RequestPort = rp.req
	obj.NamePort = rp.name
	c.objects[moPort] = obj
	c.mu.Unlock()

	go c.serviceRequestPort(obj, rp.req)
	// The kernel performs the pager_init call before allowing the
	// vm_allocate_with_pager call to complete (§4.2). It does not wait
	// for a reply.
	rp.Init(obj)
	return obj
}

// forget removes a dead object from the table.
func (c *ObjectCache) forget(moPort *ipc.Port) {
	c.mu.Lock()
	delete(c.objects, moPort)
	c.mu.Unlock()
}

// AdoptInternal implements the pager_create flow of §3.4.1: the kernel
// allocates a port to represent a kernel-created memory object and passes
// it (with fresh request and name ports) to the default pager. It is
// installed as the vm.System's default-pager factory. Returns nil when no
// default pager has been registered.
func (c *ObjectCache) AdoptInternal(obj *vm.Object) vm.Pager {
	c.mu.Lock()
	dp := c.defaultPagerPort
	if dp == nil {
		c.mu.Unlock()
		return nil
	}
	moPort := ipc.NewRawPort(c.host)
	rp := &remotePager{cache: c, moPort: moPort}
	rp.req = ipc.NewRawPort(c.host)
	rp.name = ipc.NewRawPort(c.host)
	obj.PagerPort = moPort
	obj.RequestPort = rp.req
	obj.NamePort = rp.name
	c.objects[moPort] = obj
	c.mu.Unlock()

	go c.serviceRequestPort(obj, rp.req)
	m := newMessage(MsgPagerCreate, 0, obj.Size(), 0, 0, nil,
		ipc.CarryRawRight(moPort, ipc.SendRight|ipc.ReceiveRight),
		ipc.CarryRawRight(rp.req, ipc.SendRight),
		ipc.CarryRawRight(rp.name, ipc.SendRight))
	if ipc.RawSend(c.topo, c.host, dp, m, ipc.SendOptions{Force: true}) != nil {
		m.Release()
	}
	return rp
}

// serviceRequestPort is the kernel thread that receives
// manager-to-kernel calls on one pager request port and applies them to
// the VM system. It exits when the request port is destroyed (object
// terminated).
func (c *ObjectCache) serviceRequestPort(obj *vm.Object, req *ipc.Port) {
	for {
		msg, err := ipc.RawReceive(req, ipc.ReceiveOptions{})
		if err != nil {
			return
		}
		c.apply(obj, msg)
		msg.ReleaseRights()
		// The call has been applied, any pages copied into frames and
		// any frame grant settled: this loop is the message's last
		// owner (DataProvided builds its message from the pool).
		msg.Release()
	}
}

// apply performs one manager-to-kernel call on the VM system; a
// malformed message is dropped. A frame grant coming back is settled on
// every path: installed by pager_data_provided, used for the zero-fill by
// pager_data_unavailable, and freed otherwise.
func (c *ObjectCache) apply(obj *vm.Object, msg *ipc.Message) {
	offset, length, prot, flag, data, ok := decodePayload(msg.InlineData())
	if g, lent := msg.FirstRegion().(*vm.FrameGrant); lent {
		switch {
		case ok && msg.ID == MsgDataProvided:
			c.sys.GrantProvided(obj, offset, g, prot)
		case ok && msg.ID == MsgDataUnavailable:
			c.sys.GrantUnavailable(obj, offset, length, g)
		default:
			g.Discard()
		}
		return
	}
	if !ok {
		return
	}
	switch msg.ID {
	case MsgDataProvided:
		c.sys.DataProvided(obj, offset, data, prot)
	case MsgDataLock:
		c.sys.LockRequest(obj, offset, length, prot)
	case MsgFlushRequest:
		wrote := c.sys.FlushRequest(obj, offset, length)
		c.ackFlush(msg, offset, length, wrote)
	case MsgCleanRequest:
		wrote := c.sys.CleanRequest(obj, offset, length)
		c.ackFlush(msg, offset, length, wrote)
	case MsgCache:
		c.sys.SetCanCache(obj, flag == 1)
	case MsgDataUnavailable:
		c.sys.DataUnavailable(obj, offset, length)
	}
}

// ackFlush answers a flush/clean request that carried a reply port: the
// completion notification consistency protocols need (Mach 3's
// memory_object_lock_completed). The flag byte carries the number of
// pages whose modifications were written back ahead of the ack.
func (c *ObjectCache) ackFlush(msg *ipc.Message, offset, length uint64, wrote int) {
	reply := msg.ReplyPort()
	if reply == nil {
		return
	}
	if wrote > 255 {
		wrote = 255
	}
	m := newMessage(MsgLockCompleted, offset, length, 0, byte(wrote), nil)
	if ipc.RawSend(c.topo, c.host, reply, m, ipc.SendOptions{Force: true}) != nil {
		m.Release()
	}
}

// remotePager implements vm.Pager by sending the kernel-to-manager calls
// of Table 3-5 as asynchronous messages on the memory object port ("the
// calls do not have explicit return arguments and the kernel does not
// wait for acknowledgement"). Sends are forced past the backlog so the
// kernel never blocks on an errant manager. Every call is a pooled
// message, released by the receiving Manager's loop once the handler
// returns; a message the port refuses is released here.
type remotePager struct {
	cache     *ObjectCache
	moPort    *ipc.Port
	req, name *ipc.Port
}

func (rp *remotePager) send(obj *vm.Object, m *ipc.Message) {
	err := ipc.RawSend(rp.cache.topo, rp.cache.host, rp.moPort, m, ipc.SendOptions{Force: true})
	if err == nil {
		return
	}
	// Refused, the message is still the kernel's.
	m.Release()
	if err == ipc.ErrPortDied {
		// Destruction of a memory object by the data manager: abort
		// requests in progress (§6.2.1).
		rp.cache.sys.ObjectFailed(obj, vm.ErrMemoryFailure)
		rp.cache.forget(rp.moPort)
	}
}

// Init sends pager_init with the request and name port rights.
func (rp *remotePager) Init(obj *vm.Object) {
	rp.send(obj, newMessage(MsgPagerInit, 0, obj.Size(), 0, 0, nil,
		ipc.CarryRawRight(rp.req, ipc.SendRight),
		ipc.CarryRawRight(rp.name, ipc.SendRight)))
}

// BorrowsFrames implements vm.FrameBorrower: only a manager on this
// kernel's host can fill its frames. (The port lock it takes is never held
// while calling into the VM system.)
func (rp *remotePager) BorrowsFrames() bool { return rp.moPort.Home() == rp.cache.host }

// DataRequest sends pager_data_request, identifying this kernel by its
// request port right. The frame grant, if the fault lent one, travels
// with it out of line.
func (rp *remotePager) DataRequest(obj *vm.Object, offset, length uint64, desired vm.Prot, grant *vm.FrameGrant) {
	m := newMessage(MsgDataRequest, offset, length, desired, 0, nil, ipc.CarryRawRight(rp.req, ipc.SendRight))
	if grant != nil {
		m.AppendSection(ipc.CarryRegion(grant))
	}
	rp.send(obj, m)
}

// DataWrite sends pager_data_write with the page contents, copied into
// the message: data is the caller's again when DataWrite returns.
func (rp *remotePager) DataWrite(obj *vm.Object, offset uint64, data []byte) {
	rp.send(obj, newMessage(MsgDataWrite, offset, uint64(len(data)), 0, 0, data))
}

// DataUnlock sends pager_data_unlock.
func (rp *remotePager) DataUnlock(obj *vm.Object, offset, length uint64, desired vm.Prot) {
	rp.send(obj, newMessage(MsgDataUnlock, offset, length, desired, 0, nil, ipc.CarryRawRight(rp.req, ipc.SendRight)))
}

// Terminate destroys the request and name ports; the manager learns of
// the object's end through their port-death notifications (§3.4.1).
func (rp *remotePager) Terminate(obj *vm.Object) {
	rp.cache.forget(rp.moPort)
	rp.req.Destroy()
	rp.name.Destroy()
}
