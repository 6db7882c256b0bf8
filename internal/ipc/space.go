package ipc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Name is a task-local port name, the integer a task uses to denote a
// port right in its space. Name 0 is never a valid right. A task that
// receives from many ports names one port set (AllocatePortSet).
type Name uint32

// SendOptions control msg_send. The zero value blocks indefinitely while
// the destination backlog is full.
type SendOptions struct {
	// Timeout bounds the wait for backlog space; zero means forever.
	Timeout time.Duration
	// NonBlocking makes a full backlog return ErrWouldBlock at once.
	NonBlocking bool
	// Force enqueues past the backlog limit. Reserved for the kernel's
	// own notifications, which must not block the kernel.
	Force bool
}

// ReceiveOptions control msg_receive. The zero value blocks indefinitely.
type ReceiveOptions struct {
	// Timeout bounds the wait for a message; zero means forever.
	Timeout time.Duration
	// NonBlocking makes an empty queue return ErrWouldBlock at once.
	NonBlocking bool
}

type entry struct {
	// port and rights describe an ordinary port right. For a port-set
	// name, port is nil, rights is zero and set is the kernel object.
	port   *Port
	rights Right
	set    *portSet
	// gen is the entry's generation, a space-unique stamp assigned when
	// the name is (re)installed. Dead-name notifications carry it so a
	// consumer can tell a notification for THIS binding of the name
	// from one that raced a deallocate-and-reallocate (the make-send
	// staleness discipline applied to names instead of send rights).
	gen uint32
	// dnNotify, when non-zero, is the armed one-shot dead-name request:
	// the name of the port MsgIDDeadName is delivered to when this
	// entry's port dies.
	dnNotify Name
	// srefs counts send-right user references (Mach's urefs). Every
	// InsertRight of a send right onto this name adds one; every
	// DeallocatePort of a send-only name drops one and removes the
	// entry only at zero. Without this, two messages carrying rights
	// to the same port alias one name, and the first holder's
	// deallocate strips the second holder's still-needed right — a
	// lost-reply race when concurrent RPC workers answer the same
	// client's cached reply port.
	srefs int
}

// PortStatus is the information returned by port_status (Table 3-2).
type PortStatus struct {
	// HasReceive reports whether this space holds the receive right.
	HasReceive bool
	// NumMsgs is the current queue depth.
	NumMsgs int
	// Backlog is the queue limit set by port_set_backlog.
	Backlog int
	// Dead reports that the port's receive right has been destroyed.
	Dead bool
}

// numShards is the number of independent locks the name table is split
// over. A power of two so shard selection is a mask. Name n lives in
// shard n&shardMask; names are allocated per shard so the low bits of a
// name identify its shard forever.
const (
	numShards = 16
	shardMask = numShards - 1
)

// nameShard is one slice of the name table: the names congruent to its
// index mod numShards, each shard under its own read-write lock so
// lookups on the send/receive path only read-lock one shard instead of
// serializing the whole space.
type nameShard struct {
	mu    sync.RWMutex
	names map[Name]*entry
	// seq drives name allocation within the shard: candidate names are
	// seq*numShards + shardIndex.
	seq uint32
}

// portShard is one slice of the port->name reverse index, sharded by
// port ID. Its lock also serializes InsertRight calls for the ports it
// covers, which is what keeps "one name per port" atomic without a
// space-wide lock.
type portShard struct {
	mu sync.RWMutex
	m  map[*Port]Name
}

// Space is a task's port name space: the kernel-held table mapping the
// task's port names to port rights. All IPC a task performs goes through
// its space, which is also where transferred rights are installed.
//
// The table is split into numShards name shards plus a sharded reverse
// index, so concurrent senders resolving different names proceed in
// parallel. Locking protocol: a goroutine holding a portShard lock may
// acquire a nameShard lock (InsertRight does), but never the reverse —
// every other operation takes the two locks sequentially, which is what
// makes the pairing deadlock-free.
type Space struct {
	host machine.HostID
	topo *machine.Topology
	// met is the host's shared IPC metrics bundle, resolved once at
	// construction so the send/receive fast paths record through bare
	// atomic handles (granularity is per host: spaces on one host
	// share the bundle).
	met *obs.IPCMetrics

	shards [numShards]nameShard
	ports  [numShards]portShard

	// allocCtr round-robins fresh allocations over shards so that the
	// ports of one busy space spread across every lock.
	allocCtr atomic.Uint32
	// genCtr stamps every installed name entry with a space-unique
	// generation (see entry.gen).
	genCtr atomic.Uint32
	dead   atomic.Bool
	notify Name
	// deadLetters counts kernel notifications dropped because the
	// notify port's queue was at NotifyQueueCap (or the notify port was
	// gone) — the space's dead-letter counter.
	deadLetters atomic.Uint64

	// trimFn is the no-senders callback getReplyPort arms on every
	// borrowed reply port, built once here so each RPC does not allocate
	// a fresh closure.
	trimFn func(uint32)

	// replyMu guards replyPool, the cache of temporary reply ports RPC
	// reuses across calls. Allocating and destroying a port per msg_rpc
	// costs two shard insertions, a sender registration and a port-death
	// sweep; pooling turns the RPC fast path into pure send/receive.
	// Entries carry the resolved *Port alongside the name so the
	// per-call no-senders arm and cleanliness check skip the name-table
	// lookup (reply ports are private to the space: only the pool's own
	// paths ever deallocate them, so a pair can never go stale).
	replyMu     sync.Mutex
	replyPool   []pooledReply
	replyNoPool atomic.Bool
	// replyBorrowed counts reply ports currently out on RPCs — the
	// live-demand floor the no-senders-driven pool trim respects.
	replyBorrowed int
}

// pooledReply is one idle cached reply port.
type pooledReply struct {
	n Name
	p *Port
}

// maxReplyPool bounds the cached reply ports per space; beyond it,
// finished RPC ports are deallocated as before.
const maxReplyPool = 64

// replyPoolFloor is the number of idle reply ports the pool always
// keeps. Above it the pool shrinks back toward live demand: every
// reply port is armed with a kernel no-senders watch at handout, the
// watch fires when the server of that call releases its last send
// right to the port (the call's zero-crossing), and each firing trims
// one excess idle port — so a 64-deep burst decays to the floor over
// the following calls instead of pinning 64 ports forever.
const replyPoolFloor = 8

// NotifyQueueCap bounds the kernel's forced enqueues on a space's
// notify port. Notifications bypass the ordinary sender backlog (the
// kernel never blocks delivering one), so without a cap a space that
// never drains its notify port would grow the queue without limit under
// port churn; past the cap notifications are dropped and counted as
// dead letters.
const NotifyQueueCap = 256

// NewSpace creates an empty port name space on the given host. Every
// space is born with a notify port on which the kernel delivers
// port-death notifications (MsgIDPortDeleted).
func NewSpace(host machine.HostID, topo *machine.Topology) *Space {
	s := &Space{
		host: host,
		topo: topo,
		met:  obs.IPCHost(int(host)),
	}
	s.trimFn = func(uint32) { s.trimReplyPool() }
	for i := range s.shards {
		s.shards[i].names = make(map[Name]*entry)
	}
	for i := range s.ports {
		s.ports[i].m = make(map[*Port]Name)
	}
	n, err := s.AllocatePort()
	if err != nil {
		panic("ipc: cannot allocate notify port: " + err.Error())
	}
	s.notify = n
	return s
}

// Host returns the simulated host this space lives on.
func (s *Space) Host() machine.HostID { return s.host }

// NotifyPort returns the name of the space's notification port.
func (s *Space) NotifyPort() Name { return s.notify }

// DeadLetters returns the number of kernel notifications dropped on the
// floor because this space's notify queue was full (NotifyQueueCap).
func (s *Space) DeadLetters() uint64 { return s.deadLetters.Load() }

// deadLetter counts one dropped notification, both on the space's own
// counter (the old accessor) and the host's registry metric.
func (s *Space) deadLetter() {
	s.deadLetters.Add(1)
	s.met.DeadLetters.Inc()
}

func (s *Space) shardFor(n Name) *nameShard { return &s.shards[uint32(n)&shardMask] }

func (s *Space) portShardFor(p *Port) *portShard { return &s.ports[p.id&shardMask] }

// SetReplyPortCache enables or disables the RPC reply-port cache
// (enabled by default). Disabling exists for benchmarks comparing the
// pooled fast path against per-call port allocation.
func (s *Space) SetReplyPortCache(on bool) {
	s.replyNoPool.Store(!on)
	if !on {
		s.replyMu.Lock()
		pool := s.replyPool
		s.replyPool = nil
		s.replyMu.Unlock()
		s.met.ReplyPool.Add(-int64(len(pool)))
		for _, e := range pool {
			_ = s.DeallocatePort(e.n)
		}
	}
}

// replyPortClean reports whether a reply port is safe to hand to a new
// RPC: alive and with an empty queue.
func replyPortClean(p *Port) bool {
	depth, _, dead := p.status()
	return !dead && depth == 0
}

// getReplyPort returns a cached reply port or allocates a fresh one.
// Pooled ports are re-checked for queued stragglers on the way out and
// retired if any are found. Every handout arms the port's no-senders
// watch: when the borrowing call's server drops its last send right,
// the firing trims the pool back toward demand (see replyPoolFloor).
func (s *Space) getReplyPort() (Name, *Port, error) {
	pooled := !s.replyNoPool.Load()
	var name Name
	var port *Port
	if pooled {
		for {
			s.replyMu.Lock()
			n := len(s.replyPool)
			if n == 0 {
				s.replyMu.Unlock()
				break
			}
			e := s.replyPool[n-1]
			s.replyPool = s.replyPool[:n-1]
			s.replyMu.Unlock()
			s.met.ReplyPool.Add(-1)
			if replyPortClean(e.p) {
				name, port = e.n, e.p
				break
			}
			_ = s.DeallocatePort(e.n)
		}
	}
	if name == 0 {
		var err error
		name, err = s.AllocatePort()
		if err != nil {
			return 0, nil, err
		}
		if port, err = s.Resolve(name); err != nil {
			return 0, nil, err
		}
	}
	if pooled {
		s.replyMu.Lock()
		s.replyBorrowed++
		s.replyMu.Unlock()
		port.WatchNoSenders(s.trimFn)
	}
	return name, port, nil
}

// replyPortDone returns a borrowed reply port (see putReplyPort) and
// drops the borrow count the pool trim uses as its demand floor.
func (s *Space) replyPortDone(n Name, p *Port, clean bool) {
	if !s.replyNoPool.Load() {
		s.replyMu.Lock()
		if s.replyBorrowed > 0 {
			s.replyBorrowed--
		}
		s.replyMu.Unlock()
	}
	if clean {
		s.putReplyPort(n, p)
	} else {
		// The reply may still arrive later; retire the port so a stale
		// reply can never be handed to a future call.
		_ = s.DeallocatePort(n)
	}
}

// trimReplyPool releases one idle pooled port when the pool exceeds
// both the floor and the current outstanding demand. It runs from a
// reply port's no-senders firing — once per completed borrow — so the
// pool decays at the rate the space actually performs RPCs, without
// timers.
func (s *Space) trimReplyPool() {
	var victim Name
	s.replyMu.Lock()
	// Total capacity (idle + borrowed) above the floor, and more idle
	// ports than live demand: release one. The demand guard keeps a
	// sustained N-way burst from churning its warm ports.
	if len(s.replyPool)+s.replyBorrowed > replyPoolFloor && len(s.replyPool) > s.replyBorrowed {
		// The pool is a LIFO stack; the front is the coldest port.
		victim = s.replyPool[0].n
		s.replyPool = append(s.replyPool[:0], s.replyPool[1:]...)
	}
	s.replyMu.Unlock()
	if victim != 0 {
		s.met.ReplyPool.Add(-1)
		_ = s.DeallocatePort(victim)
	}
}

// ReplyPoolSize returns the number of idle cached reply ports —
// observable surface of the no-senders-driven pool shrinking.
func (s *Space) ReplyPoolSize() int {
	s.replyMu.Lock()
	defer s.replyMu.Unlock()
	return len(s.replyPool)
}

// putReplyPort returns a reply port to the cache, or deallocates it when
// the cache is full or disabled. Only ports whose RPC completed cleanly
// may be recycled: after a receive timeout the port must be retired
// (deallocated) instead, or a late reply could be delivered to the next
// RPC that borrows the port. A port with messages still queued (a
// double-replying server) is likewise retired, never pooled.
func (s *Space) putReplyPort(n Name, p *Port) {
	if !s.replyNoPool.Load() && !s.dead.Load() && replyPortClean(p) {
		s.replyMu.Lock()
		if len(s.replyPool) < maxReplyPool {
			s.replyPool = append(s.replyPool, pooledReply{n, p})
			s.replyMu.Unlock()
			s.met.ReplyPool.Add(1)
			return
		}
		s.replyMu.Unlock()
	}
	_ = s.DeallocatePort(n)
}

// allocName reserves an unused name in the shard. Caller holds sh.mu.
func (sh *nameShard) allocName(idx uint32) Name {
	for {
		seq := sh.seq
		sh.seq++
		n := Name(seq)*numShards + Name(idx)
		if n == 0 {
			continue
		}
		if _, used := sh.names[n]; !used {
			return n
		}
	}
}

// allocEntry installs a fresh entry in a round-robin-chosen shard and
// returns its new name, stamping the entry's generation. It re-checks
// the dead flag under the shard lock: Destroy sets the flag before
// sweeping shards, so an insert that observed the space alive under its
// shard lock is guaranteed to be seen by the sweep.
func (s *Space) allocEntry(e *entry) (Name, error) {
	idx := s.allocCtr.Add(1) & shardMask
	sh := &s.shards[idx]
	sh.mu.Lock()
	if s.dead.Load() {
		sh.mu.Unlock()
		return 0, ErrSpaceDead
	}
	n := sh.allocName(idx)
	e.gen = s.genCtr.Add(1)
	sh.names[n] = e
	sh.mu.Unlock()
	return n, nil
}

// AllocatePort creates a new port with this space as receiver and returns
// its name (port_allocate). The space holds both receive and send rights.
func (s *Space) AllocatePort() (Name, error) {
	if s.dead.Load() {
		return 0, ErrSpaceDead
	}
	p := newPort(s)
	n, err := s.allocEntry(&entry{port: p, rights: SendRight | ReceiveRight, srefs: 1})
	if err != nil {
		return 0, err
	}
	ps := s.portShardFor(p)
	ps.mu.Lock()
	// Re-check under the index lock: if Destroy began between
	// allocEntry and here, its sweep collects the name entry (the entry
	// went in before the flag-then-sweep could pass its shard) and
	// destroys the port, so report the death rather than repopulate an
	// index the sweep clears.
	if s.dead.Load() {
		ps.mu.Unlock()
		return 0, ErrSpaceDead
	}
	ps.m[p] = n
	ps.mu.Unlock()
	p.addSender(s)
	return n, nil
}

// DeallocatePort removes the space's rights to the named port
// (port_deallocate). Dropping the receive right destroys the port,
// notifying all spaces that hold send rights. Deallocating a port-set
// name destroys the set: its members are orphaned back to direct
// receive with their queues intact, and blocked set receivers fail
// with ErrPortDied.
func (s *Space) DeallocatePort(n Name) error {
	sh := s.shardFor(n)
	sh.mu.Lock()
	e, ok := sh.names[n]
	if !ok {
		sh.mu.Unlock()
		return ErrInvalidPort
	}
	// A send-only name with outstanding user references just loses one:
	// each message that delivered a send right here added one (see
	// entry.srefs), and the name — shared by every concurrent holder —
	// must survive until the last of them deallocates it.
	if e.set == nil && e.rights == SendRight && e.srefs > 1 {
		e.srefs--
		sh.mu.Unlock()
		return nil
	}
	delete(sh.names, n)
	sh.mu.Unlock()

	if e.set != nil {
		e.set.destroy(ErrPortDied)
		return nil
	}

	ps := s.portShardFor(e.port)
	ps.mu.Lock()
	// A racing InsertRight may already have installed the port under a
	// fresh name; only remove the index entry if it is still ours.
	if cur, ok := ps.m[e.port]; ok && cur == n {
		delete(ps.m, e.port)
	}
	ps.mu.Unlock()

	if e.rights&SendRight != 0 {
		e.port.dropSender(s)
	}
	if e.rights&ReceiveRight != 0 {
		e.port.destroy()
	}
	return nil
}

// Status returns queue and right information for the named port
// (port_status).
func (s *Space) Status(n Name) (PortStatus, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	var rights Right
	if ok {
		rights = e.rights
	}
	sh.mu.RUnlock()
	if !ok || e.port == nil {
		return PortStatus{}, ErrInvalidPort
	}
	depth, backlog, dead := e.port.status()
	return PortStatus{
		HasReceive: rights&ReceiveRight != 0,
		NumMsgs:    depth,
		Backlog:    backlog,
		Dead:       dead,
	}, nil
}

// SetBacklog limits the number of messages that may wait on the named
// port (port_set_backlog). The space must hold the receive right.
//
// Named port SETS take a set-wide cap instead: the sum of all member
// queue depths may not exceed backlog, so senders to ANY member block
// (or ErrWouldBlock) once the set as a whole is full — collective
// backpressure for a server draining many client ports through one
// receive point, where per-port backlogs alone would let N clients
// buffer N×backlog messages. Member ports keep their own backlogs; the
// tighter of the two limits governs each send. Forced sends and kernel
// notifications are counted but never blocked.
func (s *Space) SetBacklog(n Name, backlog int) error {
	if backlog < 1 {
		backlog = 1
	}
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	var rights Right
	if ok {
		rights = e.rights
	}
	sh.mu.RUnlock()
	if !ok {
		return ErrInvalidPort
	}
	if e.set != nil {
		e.set.setQlimit(int64(backlog))
		return nil
	}
	if rights&ReceiveRight == 0 {
		return ErrNotReceiver
	}
	e.port.setBacklog(backlog)
	return nil
}

// Resolve returns the port behind a name. It models the kernel's
// privileged lookup of a right presented in a system call (for example
// the memory object argument of vm_allocate_with_pager) and must only be
// called by kernel-side code. A name whose port has died resolves to
// ErrDeadName until the task deallocates it.
func (s *Space) Resolve(n Name) (*Port, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	sh.mu.RUnlock()
	if !ok || e.port == nil {
		return nil, ErrInvalidPort
	}
	if e.port.isDead() {
		return nil, ErrDeadName
	}
	return e.port, nil
}

// CopySendRight copies a send right for the port this space names n into
// the space dst, returning the name dst holds it under. It is the
// kernel-privileged idiom a server uses to hand a client access to a
// service port (the bootstrapping shortcut for rights that would
// otherwise travel in a message).
func (s *Space) CopySendRight(dst *Space, n Name) (Name, error) {
	p, err := s.Resolve(n)
	if err != nil {
		return 0, err
	}
	return dst.InsertRight(p, SendRight)
}

// NameOf returns the name under which this space holds rights to p, if
// any. Kernel-side use only.
func (s *Space) NameOf(p *Port) (Name, bool) {
	ps := s.portShardFor(p)
	ps.mu.RLock()
	n, ok := ps.m[p]
	ps.mu.RUnlock()
	return n, ok
}

// InsertRight installs a right to p into the space and returns its name.
// If the space already holds rights to p the existing name is reused and
// the rights are merged. It models the kernel handing a task a
// capability. Inserting a receive right rehomes the port to this space.
func (s *Space) InsertRight(p *Port, r Right) (Name, error) {
	if p == nil || r == 0 {
		return 0, ErrInvalidPort
	}
	if p.isDead() {
		return 0, ErrPortDied
	}
	if s.dead.Load() {
		return 0, ErrSpaceDead
	}
	ps := s.portShardFor(p)
	ps.mu.Lock()
	var had Right
	n, ok := ps.m[p]
	if ok {
		sh := s.shardFor(n)
		sh.mu.Lock()
		if e, live := sh.names[n]; live && e.port == p {
			had = e.rights
			e.rights |= r
			if r&SendRight != 0 {
				if had&SendRight != 0 {
					e.srefs++
				} else {
					e.srefs = 1
				}
			}
			sh.mu.Unlock()
			ps.mu.Unlock()
			s.applyInsert(p, r, had)
			return n, nil
		}
		sh.mu.Unlock()
		// The index entry was stale (a deallocation raced us); fall
		// through and install the port under a fresh name.
	}
	fresh := &entry{port: p, rights: r}
	if r&SendRight != 0 {
		fresh.srefs = 1
	}
	n, err := s.allocEntry(fresh)
	if err != nil {
		ps.mu.Unlock()
		return 0, err
	}
	ps.m[p] = n
	ps.mu.Unlock()
	s.applyInsert(p, r, 0)
	return n, nil
}

// applyInsert performs the port-side effects of installing a right.
func (s *Space) applyInsert(p *Port, r, had Right) {
	if r&SendRight != 0 && had&SendRight == 0 {
		p.addSender(s)
	}
	if r&ReceiveRight != 0 {
		p.setReceiver(s)
	}
}

// notifyPortDeath delivers a MsgIDPortDeleted message to the space's
// notify port for a port this space held send rights to. Called by
// Port.destroy. The name is NOT removed from the space: it becomes a
// dead name (Resolve and Send return ErrDeadName) until the task
// deallocates it, so a stale name a client still holds can never be
// reallocated to alias a fresh port.
func (s *Space) notifyPortDeath(p *Port) {
	if s.dead.Load() {
		return
	}
	ps := s.portShardFor(p)
	ps.mu.Lock()
	n, ok := ps.m[p]
	if ok {
		delete(ps.m, p)
	}
	ps.mu.Unlock()
	if !ok {
		return
	}
	sh := s.shardFor(n)
	sh.mu.Lock()
	var dnNotify Name
	var gen uint32
	if e, live := sh.names[n]; live && e.dnNotify != 0 {
		// Consume the armed one-shot dead-name request.
		dnNotify, gen = e.dnNotify, e.gen
		e.dnNotify = 0
	}
	sh.mu.Unlock()

	s.postNotification(&Message{
		ID:       MsgIDPortDeleted,
		Sections: []Section{InlineBytes(EncodeName(n))},
	})
	if dnNotify != 0 {
		m := &Message{
			ID:       MsgIDDeadName,
			Sections: []Section{InlineBytes(EncodeDeadName(n, gen))},
		}
		if np, err := s.Resolve(dnNotify); err != nil || !np.enqueueNotify(m, NotifyQueueCap) {
			s.deadLetter()
		}
	}
}

// notifyNoSenders delivers a MsgIDNoSenders message for port p, fired
// by the last extant send reference going away while a request was
// armed. Runs with no locks held.
func (s *Space) notifyNoSenders(p *Port, msCount uint32) {
	if s.dead.Load() {
		return
	}
	n, ok := s.NameOf(p)
	if !ok {
		return
	}
	s.postNotification(&Message{
		ID:       MsgIDNoSenders,
		Sections: []Section{InlineBytes(EncodeNoSenders(n, msCount))},
	})
}

// postNotification enqueues a kernel notification on the space's notify
// port, bypassing the backlog but bounded by NotifyQueueCap;
// undeliverable notifications count as dead letters.
func (s *Space) postNotification(m *Message) {
	np, err := s.Resolve(s.notify)
	if err != nil || !np.enqueueNotify(m, NotifyQueueCap) {
		s.deadLetter()
	}
}

// RequestNoSenders arms a no-senders notification for the named port,
// which must be held with the receive right. When the count of extant
// send references — space-held send rights other than the receiver's
// own, rights in transit inside queued messages, and kernel references
// — next drops to zero, MsgIDNoSenders is delivered on the space's
// notify port carrying the name and the port's make-send count at
// firing time. The request is one-shot: a receiver that wants further
// notifications re-arms after each one. Unlike Mach, a request armed
// while the count is already zero does not fire immediately; it fires
// on the next transition to zero, which lets a server arm before
// minting its first client right.
func (s *Space) RequestNoSenders(n Name) error {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	if !ok || e.rights&ReceiveRight == 0 {
		r := Right(0)
		if ok {
			r = e.rights
		}
		sh.mu.RUnlock()
		if ok && r&ReceiveRight == 0 {
			return ErrNotReceiver
		}
		return ErrInvalidPort
	}
	p := e.port
	sh.mu.RUnlock()
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		return ErrPortDied
	}
	p.nsArmed = true
	p.nsSpace = s
	p.nsFunc = nil
	p.mu.Unlock()
	return nil
}

// RequestDeadName arms a one-shot dead-name notification for the named
// send right: when the port behind it dies (its receive right is
// destroyed anywhere), MsgIDDeadName is delivered on the port this
// space names notify — which must be a receive right it holds, the
// space's own NotifyPort being the common choice. The payload carries
// the dead name and the name entry's generation; a consumer replays
// both through ConfirmDeadName before acting, because the task may
// have deallocated the dead name and had it reallocated to a fresh
// port while the notification sat queued (the make-send staleness
// discipline, applied to names). Arming an already dead name fails
// with ErrDeadName — the caller can see the state directly.
func (s *Space) RequestDeadName(n, notify Name) error {
	// The notify port must be a receive right in this space: dead-name
	// notifications to a port the requester cannot drain are dead
	// letters by construction.
	nsh := s.shardFor(notify)
	nsh.mu.RLock()
	ne, ok := nsh.names[notify]
	if !ok || ne.rights&ReceiveRight == 0 {
		nsh.mu.RUnlock()
		return ErrNotReceiver
	}
	nsh.mu.RUnlock()

	sh := s.shardFor(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.names[n]
	if !ok || e.set != nil {
		return ErrInvalidPort
	}
	if e.rights&SendRight == 0 {
		// Only the death of a held send right leaves a dead name worth
		// announcing; the receive-right holder IS the destroyer.
		return ErrInvalidPort
	}
	if e.port.isDead() {
		return ErrDeadName
	}
	e.dnNotify = notify
	return nil
}

// ConfirmDeadName reports whether a received MsgIDDeadName notification
// is still valid: true when the name still exists, is the same binding
// the notification was armed for (matching generation), and its port is
// dead. A false result means the notification went stale — the task
// deallocated the name (and possibly reallocated it to a fresh port)
// while the notification was queued — and must be suppressed.
func (s *Space) ConfirmDeadName(n Name, gen uint32) bool {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	sh.mu.RUnlock()
	return ok && e.set == nil && e.gen == gen && e.port.isDead()
}

// ConfirmNoSenders reports whether a received no-senders notification
// is still valid: true when no send reference has been minted since the
// notification fired (the notification's make-send count matches the
// port's, which implies the extant count is still zero), or when the
// port has since died outright. A false result means the notification
// raced a newly minted send right and should be suppressed — drop it
// and re-arm with RequestNoSenders.
func (s *Space) ConfirmNoSenders(n Name, msCount uint32) (bool, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	sh.mu.RUnlock()
	if !ok || e.port == nil {
		return false, ErrInvalidPort
	}
	p := e.port
	p.mu.Lock()
	confirmed := p.dead.Load() || (p.makeSend == msCount && p.extant == 0)
	p.mu.Unlock()
	return confirmed, nil
}

// Destroy tears down the space, as task termination would: receive rights
// it holds destroy their ports (notifying senders), send rights are
// released.
func (s *Space) Destroy() {
	if s.dead.Swap(true) {
		return
	}
	// The dead flag is set before the sweep, so any insert that got its
	// shard lock first will be collected here, and any insert arriving
	// later aborts on the flag.
	var entries []*entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.names {
			entries = append(entries, e)
		}
		sh.names = make(map[Name]*entry)
		sh.mu.Unlock()
	}
	for i := range s.ports {
		ps := &s.ports[i]
		ps.mu.Lock()
		ps.m = make(map[*Port]Name)
		ps.mu.Unlock()
	}
	// The cached reply ports' entries were just swept with every other
	// name; drop the stale names so nothing hands them out again.
	s.replyMu.Lock()
	drained := len(s.replyPool)
	s.replyPool = nil
	s.replyMu.Unlock()
	s.met.ReplyPool.Add(-int64(drained))

	// Port sets die first, failing blocked set receivers with
	// ErrSpaceDead; their members are destroyed with every other
	// receive right just below.
	for _, e := range entries {
		if e.set != nil {
			e.set.destroy(ErrSpaceDead)
		}
	}
	for _, e := range entries {
		if e.rights&SendRight != 0 {
			e.port.dropSender(s)
		}
	}
	for _, e := range entries {
		if e.rights&ReceiveRight != 0 {
			e.port.destroy()
		}
	}
}
