package ipc

import (
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// lookupRight resolves a name under its shard's read lock, requiring the
// given rights (0 requires mere existence of a port right). This is the
// send-path lookup: concurrent senders resolving names in different
// shards do not contend. A name whose port has died is a dead name,
// never a valid right; a port-set name is no port right at all (its
// entry has no port — the need==0 path must reject it, not dereference
// it).
func (s *Space) lookupRight(n Name, need Right) (*Port, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	if !ok || e.port == nil || (need != 0 && e.rights&need != need) {
		sh.mu.RUnlock()
		return nil, ErrInvalidPort
	}
	p := e.port
	sh.mu.RUnlock()
	if p.isDead() {
		return nil, ErrDeadName
	}
	return p, nil
}

// lookupReplyRight resolves the reply-port name of an outgoing message.
// The sender must hold a send or a receive right: naming an arbitrary
// port a task holds no right to would smuggle a send right to the
// receiver that the sender was never granted.
func (s *Space) lookupReplyRight(n Name) (*Port, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	if !ok || e.rights&(SendRight|ReceiveRight) == 0 {
		sh.mu.RUnlock()
		return nil, ErrInvalidPort
	}
	p := e.port
	sh.mu.RUnlock()
	if p.isDead() {
		return nil, ErrDeadName
	}
	return p, nil
}

// extractRights moves the rights r for name n out of the space for
// transfer in a message body. Carrying a receive right strips it from the
// entry; an entry left with no rights is removed entirely.
func (s *Space) extractRights(n Name, r Right) (*Port, error) {
	sh := s.shardFor(n)
	sh.mu.Lock()
	e, ok := sh.names[n]
	if !ok || e.rights&r != r {
		sh.mu.Unlock()
		return nil, ErrInvalidPort
	}
	if e.port.isDead() {
		sh.mu.Unlock()
		return nil, ErrDeadName
	}
	p := e.port
	e.rights &^= ReceiveRight
	gone := e.rights == 0
	if gone {
		delete(sh.names, n)
	}
	sh.mu.Unlock()
	// A migrating receive right leaves its port set: the set is a
	// property of the old space's receive point, not of the port. The
	// queue travels with the right and rehomes at insertion. The
	// receiver is cleared FIRST so a concurrent MoveToPortSet that
	// resolved the name before the entry was removed cannot re-capture
	// the in-transit port (addMember re-checks the receiver under the
	// port lock).
	p.setReceiver(nil)
	p.leaveSet()
	if gone {
		ps := s.portShardFor(p)
		ps.mu.Lock()
		if cur, ok := ps.m[p]; ok && cur == n {
			delete(ps.m, p)
		}
		ps.mu.Unlock()
	}
	return p, nil
}

// Send transmits m to the port named by m.RemotePort (msg_send). The
// space must hold a send right. If m.LocalPort is non-zero, a send right
// to that port travels with the message as the reply port. Port rights in
// the body are transferred: send rights are copied, receive rights are
// moved out of this space. A message that cannot be sent takes its
// out-of-line regions with it: they are discarded, whatever the error.
func (s *Space) Send(m *Message, opts SendOptions) error {
	if s.dead.Load() {
		return m.refuse(ErrSpaceDead)
	}
	dest, err := s.lookupRight(m.RemotePort, SendRight)
	if err != nil {
		return m.refuse(err)
	}

	// Instrumentation, inside the hard budget: the send counter is one
	// atomic add whose return value doubles as the latency-sampling
	// decision (every LatencySampleEvery-th message is timestamped; an
	// unconditional time.Now() pair would be ~20% of this path), and an
	// unsampled trace costs one atomic load plus this branch. Send only
	// mints a trace ID when the message carries none, so replies and
	// forwards stamped by their builders stay in the request's trace.
	if s.met.Sends.Inc()%obs.LatencySampleEvery == 0 {
		m.sentAt = time.Now().UnixNano()
	}
	if m.trace == 0 {
		m.trace = obs.SampleTraceID()
	}
	if m.trace != 0 {
		obs.RecordHop(int32(s.host), m.trace, obs.HopSend, int32(m.ID), dest.id)
	}

	if m.LocalPort != 0 {
		rp, err := s.lookupReplyRight(m.LocalPort)
		if err != nil {
			return m.refuse(err)
		}
		m.replyPort = rp
	} else {
		m.replyPort = nil
	}

	// Resolve and (for receive rights) extract body rights.
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind != PortRightSection {
			continue
		}
		var p *Port
		if sec.Right&ReceiveRight != 0 {
			p, err = s.extractRights(sec.PortName, sec.Right)
		} else {
			p, err = s.lookupRight(sec.PortName, sec.Right)
		}
		if err != nil {
			// Receive rights extracted for earlier sections have
			// already left the space and can never be delivered now;
			// destroy them (dead-name semantics) rather than orphan
			// their ports.
			for j := 0; j < i; j++ {
				prev := &m.Sections[j]
				if prev.Kind == PortRightSection && prev.port != nil && prev.Right&ReceiveRight != 0 {
					prev.port.destroy()
				}
			}
			return m.refuse(err)
		}
		sec.port = p
	}

	// Every send right the message carries takes an in-transit
	// reference: a right inside a queued message counts as a sender
	// until it is installed in the receiving space or destroyed.
	m.addSendRefs()

	if s.topo != nil {
		// Home() is read under the port lock: a migrating receive
		// right (setReceiver) may rehome the queue concurrently.
		s.topo.ChargeMessage(s.host, dest.Home(), m.wireSize())
	}
	err = s.sendResolved(dest, m, opts)
	if err != nil {
		// Rights moved out of the space are destroyed with the failed
		// message, as Mach destroys undeliverable rights; the transit
		// references just taken are dropped with them.
		m.destroyRights()
	}
	return err
}

// refuse discards the regions of a message that failed before it could
// be queued, and returns err.
func (m *Message) refuse(err error) error {
	m.discardRegions()
	return err
}

func (s *Space) sendResolved(dest *Port, m *Message, opts SendOptions) error {
	return dest.enqueue(m, opts.Force, opts.NonBlocking, opts.Timeout)
}

// Receive takes the next message from the named port, or from the named
// port set with fair round-robin over its members (msg_receive). Rights
// in the message are installed in this space and the message is
// rewritten: LocalPort becomes the name of the port the message arrived
// on (the member's name, for a set receive) and RemotePort the name of
// the reply port, if any. Receiving directly from a port that is a
// member of a set fails with ErrInSet.
func (s *Space) Receive(from Name, opts ReceiveOptions) (*Message, error) {
	if s.dead.Load() {
		return nil, ErrSpaceDead
	}
	sh := s.shardFor(from)
	sh.mu.RLock()
	e, ok := sh.names[from]
	if !ok {
		sh.mu.RUnlock()
		return nil, ErrInvalidPort
	}
	var m *Message
	var err error
	if set := e.set; set != nil {
		sh.mu.RUnlock()
		m, _, err = set.receive(opts)
	} else if e.rights&ReceiveRight == 0 {
		sh.mu.RUnlock()
		return nil, ErrNotReceiver
	} else {
		p := e.port
		sh.mu.RUnlock()
		m, err = p.dequeue(opts.NonBlocking, opts.Timeout)
	}
	if err != nil {
		return nil, err
	}
	s.received(m)
	return m, nil
}

// received accounts a message a receive took off a queue of this space
// and delivers it: the receive metrics and trace hop, then the carried
// rights installed under this space's names.
func (s *Space) received(m *Message) {
	s.met.Receives.Inc()
	if m.sentAt != 0 {
		s.met.Latency.Record(time.Now().UnixNano() - m.sentAt)
		m.sentAt = 0
	}
	if m.trace != 0 {
		var pid uint64
		if m.arrivedOn != nil {
			pid = m.arrivedOn.id
		}
		obs.RecordHop(int32(s.host), m.trace, obs.HopReceive, int32(m.ID), pid)
	}
	s.deliver(m)
}

// deliver installs in-flight rights into the space and rewrites the
// message header and body names for the receiver's view.
func (s *Space) deliver(m *Message) {
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind != PortRightSection || sec.port == nil {
			continue
		}
		if n, err := s.InsertRight(sec.port, sec.Right); err == nil {
			sec.PortName = n
		} else {
			// The right cannot land (the space is dying, or the port
			// died in transit). A send right is simply released, but an
			// undeliverable receive right would orphan the port — no
			// space could ever drain or destroy it — so the port dies
			// here and spaces holding send rights get dead-name
			// notifications, Mach's semantics for rights destroyed in
			// an undeliverable message.
			if sec.Right&ReceiveRight != 0 {
				sec.port.destroy()
			}
			sec.PortName = 0
		}
		// Installed (or disposed of): the in-transit reference taken on
		// the send path is dropped after the insert, so the extant
		// count never dips through zero during a transfer.
		if sec.Right&SendRight != 0 {
			sec.port.dropTransit()
		}
		sec.port = nil
	}
	if m.replyPort != nil {
		if n, err := s.InsertRight(m.replyPort, SendRight); err == nil {
			m.RemotePort = n
		} else {
			m.RemotePort = 0
		}
		m.replyPort.dropTransit()
	} else {
		m.RemotePort = 0
	}
	if m.arrivedOn != nil {
		if n, ok := s.NameOf(m.arrivedOn); ok {
			m.LocalPort = n
		} else {
			m.LocalPort = 0
		}
	}
	m.replyPort = nil
	m.arrivedOn = nil
}

// RPC sends m and blocks for the reply (msg_rpc). If m.LocalPort is zero
// a temporary reply port is borrowed from the space's reply-port cache
// (allocating one only when the cache is empty) and recycled after the
// reply arrives. sendTimeout and rcvTimeout of zero block forever.
func (s *Space) RPC(m *Message, sendTimeout, rcvTimeout time.Duration) (*Message, error) {
	reply := m.LocalPort
	var replyPort *Port
	temp := false
	if reply == 0 {
		var err error
		reply, replyPort, err = s.getReplyPort()
		if err != nil {
			return nil, err
		}
		m.LocalPort = reply
		temp = true
	}
	if err := s.Send(m, SendOptions{Timeout: sendTimeout}); err != nil {
		if temp {
			// Nothing was enqueued; the port is clean and reusable.
			s.replyPortDone(reply, replyPort, true)
		}
		return nil, err
	}
	r, err := s.Receive(reply, ReceiveOptions{Timeout: rcvTimeout})
	if temp {
		s.replyPortDone(reply, replyPort, err == nil)
	}
	return r, err
}

// --- Kernel-side (raw) operations ---------------------------------------
//
// The Mach kernel does not use port names for its own references; it
// holds ports directly. The kern and pager packages use these raw
// operations to implement the kernel half of the external memory
// interface.

// NewRawPort creates a port whose receive right is held by kernel code
// rather than any task space.
func NewRawPort(home machine.HostID) *Port {
	p := newPort(nil)
	p.home = home
	return p
}

// CarryRawRight builds a message section around a kernel-held port,
// transferring the given right to the receiving space.
func CarryRawRight(p *Port, r Right) Section {
	return Section{Kind: PortRightSection, Right: r, port: p}
}

// RawPort exposes the resolved port of a received right section to
// kernel-side receivers that do not use a name space.
func (sec *Section) RawPort() *Port { return sec.port }

// ReplyPort exposes the raw reply port of a message to kernel-side
// receivers. It is only valid before the message is delivered to a space.
func (m *Message) ReplyPort() *Port { return m.replyPort }

// ArrivedOn exposes the port a raw-received message was queued on.
func (m *Message) ArrivedOn() *Port { return m.arrivedOn }

// SetReplyPort installs a raw reply port on a message built by kernel
// code — the netmsg forwarder uses it to swap a reply port for its
// proxy while re-sending a message toward the destination's host.
func (m *Message) SetReplyPort(p *Port) { m.replyPort = p }

// RawSend transmits m directly to port p on behalf of kernel code running
// on host from. Topology charges apply exactly as for task sends. Body
// sections must use CarryRawRight (names cannot be resolved). Carried
// send rights take in-transit references exactly as Space.Send; on an
// undeliverable message the rights are destroyed (receive rights) or
// released (send references), and the regions discarded, before the
// error returns.
func RawSend(topo *machine.Topology, from machine.HostID, p *Port, m *Message, opts SendOptions) error {
	if p == nil {
		return m.refuse(ErrInvalidPort)
	}
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind == PortRightSection && sec.port == nil {
			return m.refuse(ErrInvalidPort)
		}
	}
	m.addSendRefs()
	if topo != nil {
		topo.ChargeMessage(from, p.Home(), m.wireSize())
	}
	// Kernel sends never mint trace IDs (the relay propagates the task
	// send's ID); a stamped message records its hop here.
	if m.trace != 0 {
		obs.RecordHop(int32(from), m.trace, obs.HopSend, int32(m.ID), p.id)
	}
	err := p.enqueue(m, opts.Force, opts.NonBlocking, opts.Timeout)
	if err != nil {
		m.destroyRights()
	}
	return err
}

// RawReceive dequeues the next message from a kernel-held port without
// name-space delivery: right sections keep their raw ports (use
// Section.RawPort) and the reply port is available via Message.ReplyPort.
// The consumer must call Message.ReleaseRights once it is done with the
// carried ports, or their in-transit send references leak.
func RawReceive(p *Port, opts ReceiveOptions) (*Message, error) {
	if p == nil {
		return nil, ErrInvalidPort
	}
	m, err := p.dequeue(opts.NonBlocking, opts.Timeout)
	if err == nil && m.trace != 0 {
		obs.RecordHop(int32(p.Home()), m.trace, obs.HopReceive, int32(m.ID), p.id)
	}
	return m, err
}

// Destroy kills a kernel-held port, notifying spaces with send rights.
func (p *Port) Destroy() { p.destroy() }

// Dead reports whether the port has been destroyed.
func (p *Port) Dead() bool { return p.isDead() }
