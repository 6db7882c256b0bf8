package ipc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// portSet is the kernel object behind a port-set name: a group of
// receive rights one Receive call drains with fair round-robin
// rotation, the paper's servers' "one receive point for many client
// ports" (§4-§5).
//
// Messages never move off their member ports — each member keeps its
// own queue and backlog, so per-port backpressure (a full member stalls
// only its own senders) and no-senders accounting are untouched by
// membership. A set receive scans the members in name order starting
// just past the member served last (a rotating cursor), and parks on a set-level waiter list between scans; a
// sender enqueueing on a member hands a wakeup to exactly one parked
// waiter, so the hot path costs one buffered-channel signal, not a
// broadcast.
//
// Lock order: portSet.mu before Port.mu, never the reverse. Code
// holding Port.mu (enqueue, destroy) reads the port's set pointer under
// the port lock and calls into the set only after releasing it.
type portSet struct {
	space *Space

	mu      sync.Mutex
	members map[Name]*Port
	// sorted is a copy-on-write snapshot of the members in name order;
	// receives iterate it without holding mu (membership changes build
	// a fresh slice).
	sorted  []setMember
	waiters []*recvWaiter
	dead    bool
	// err is the error delivered to waiters and later receives once the
	// set is dead: ErrPortDied for an explicit deallocation,
	// ErrSpaceDead when the whole space was destroyed.
	err error

	// cursor is the name of the member served last; the next scan
	// resumes just past it, so one flooded member cannot starve the
	// rest.
	cursor atomic.Uint32

	// qlimit is the set-wide queue cap (0 = no set-level cap): the sum
	// of member queue depths may not exceed it, so a server draining
	// many client ports through one set bounds its total buffered work
	// and backpressures ALL senders collectively — per-port backlogs
	// alone let N clients queue N×backlog messages. Set via
	// Space.SetBacklog on the set name.
	qlimit atomic.Int64
	// queued counts messages sitting on member queues. Every queued
	// message on a member is charged exactly once: charged by the
	// member's enqueue (or by addMember for a pre-existing queue),
	// discharged by the set receive that takes it (or by the membership
	// change / port death that carries it out of the set).
	qlen atomic.Int64
	// qgateMu/qgate park senders blocked on the set cap. Strictly a
	// leaf lock: taken only with no other ipc lock held (a sender drops
	// the port lock before parking), so charging and waking stay off
	// the set's membership lock.
	qgateMu sync.Mutex
	qgate   *sync.Cond
}

type setMember struct {
	n Name
	p *Port
}

func newPortSet(s *Space) *portSet {
	ps := &portSet{space: s, members: make(map[Name]*Port)}
	ps.qgate = sync.NewCond(&ps.qgateMu)
	return ps
}

// setQlimit installs a set-wide queue cap and wakes parked senders to
// re-evaluate against it.
func (ps *portSet) setQlimit(n int64) {
	ps.qlimit.Store(n)
	ps.wakeSenders()
}

// tryCharge reserves one slot against the set cap, reporting failure
// when the set is full. force (kernel notifications, server replies)
// always charges: forced messages are counted but never blocked.
// Atomics only — callers hold a member's port lock, which is ordered
// after ps.mu and must not take it.
func (ps *portSet) tryCharge(force bool) bool {
	limit := ps.qlimit.Load()
	if force || limit <= 0 {
		ps.qlen.Add(1)
		return true
	}
	for {
		n := ps.qlen.Load()
		if n >= limit {
			return false
		}
		if ps.qlen.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// discharge releases n slots (a message left a member queue — received
// through the set, or carried out by membership change or port death)
// and lets blocked senders retry.
func (ps *portSet) discharge(n int) {
	if n == 0 {
		return
	}
	ps.qlen.Add(int64(-n))
	if ps.qlimit.Load() > 0 {
		ps.wakeSenders()
	}
}

// wakeSenders broadcasts the sender gate. Blocked senders re-evaluate
// everything from scratch (cap, membership, port liveness), so any
// state change that might unblock one just broadcasts.
func (ps *portSet) wakeSenders() {
	ps.qgateMu.Lock()
	ps.qgate.Broadcast()
	ps.qgateMu.Unlock()
}

// waitSenders parks a sender until the gate is broadcast or the
// deadline passes, reporting false on timeout. The full-cap predicate
// is re-checked under the gate lock so a discharge between the caller's
// failed tryCharge and the park here is never a lost wakeup. Called
// with NO other ipc lock held.
func (ps *portSet) waitSenders(deadline time.Time) bool {
	ps.qgateMu.Lock()
	defer ps.qgateMu.Unlock()
	limit := ps.qlimit.Load()
	if limit <= 0 || ps.qlen.Load() < limit {
		return true
	}
	return condWait(ps.qgate, deadline)
}

// rebuildLocked refreshes the sorted snapshot. Caller holds ps.mu.
func (ps *portSet) rebuildLocked() {
	out := make([]setMember, 0, len(ps.members))
	for n, p := range ps.members {
		out = append(out, setMember{n, p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	ps.sorted = out
}

// addMember installs p (named n in the owning space) as a member
// carrying handler h, or gives an existing member h. It returns errRetry
// when p concurrently belongs to another set — the caller detaches it
// and tries again. Parked direct receivers are failed with ErrInSet: once
// a port is in a set, its messages arrive only through the set.
func (ps *portSet) addMember(n Name, p *Port, h Handler) error {
	ps.mu.Lock()
	if ps.dead {
		ps.mu.Unlock()
		return ErrInvalidPort
	}
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		ps.mu.Unlock()
		return ErrDeadName
	}
	if p.receiver != ps.space {
		// The receive right left the space between the caller's name
		// lookup and here (extracted into a message, migrating away); a
		// set must never capture a port another space receives from.
		p.mu.Unlock()
		ps.mu.Unlock()
		return ErrNotReceiver
	}
	if p.inSet != nil {
		busy := p.inSet != ps
		if !busy {
			p.serve = h
		}
		p.mu.Unlock()
		ps.mu.Unlock()
		if busy {
			return errRetry
		}
		return nil
	}
	p.inSet = ps
	p.serve = h
	waiters := p.waiters
	p.waiters = nil
	qn := p.queue.n
	queued := qn > 0
	p.mu.Unlock()
	// Charge the member's pre-existing queue against the set cap. The
	// snapshot is exact: enqueues serialize on p.mu, so one before the
	// pointer flip is in qn and uncharged, one after charges itself.
	ps.qlen.Add(int64(qn))
	ps.members[n] = p
	ps.rebuildLocked()
	ps.mu.Unlock()
	for _, w := range waiters {
		w.err = ErrInSet
		w.ready <- struct{}{}
	}
	if queued {
		ps.notifyAll()
	}
	return nil
}

// errRetry is the internal signal that a membership operation raced a
// concurrent move and should be retried. Never returned to callers.
var errRetry = &retryError{}

type retryError struct{}

func (*retryError) Error() string { return "ipc: retry" }

// removeMember conditionally detaches p: it reports whether p was a
// member of this set (and was removed). Waiters are woken to rescan —
// an emptied set must fail them with ErrNoEnabledPorts.
func (ps *portSet) removeMember(p *Port) bool {
	ps.mu.Lock()
	p.mu.Lock()
	if p.inSet != ps {
		p.mu.Unlock()
		ps.mu.Unlock()
		return false
	}
	p.inSet = nil
	qn := p.queue.n
	p.mu.Unlock()
	for n, m := range ps.members {
		if m == p {
			delete(ps.members, n)
			break
		}
	}
	ps.rebuildLocked()
	ps.mu.Unlock()
	// The orphaned queue leaves the set's accounting, and senders
	// parked on the gate for THIS port must re-route to its per-port
	// backlog even when nothing was queued.
	ps.discharge(qn)
	ps.wakeSenders()
	ps.notifyAll()
	return true
}

// forgetPort drops a member whose port died. The port already cleared
// its own set pointer under its lock (destroy cannot take ps.mu under
// p.mu), so only the set-side tables need cleaning. drained is the
// number of messages the dying port's queue held — all charged against
// the set cap, all gone now.
func (ps *portSet) forgetPort(p *Port, drained int) {
	ps.mu.Lock()
	for n, m := range ps.members {
		if m == p {
			delete(ps.members, n)
			break
		}
	}
	ps.rebuildLocked()
	ps.mu.Unlock()
	ps.discharge(drained)
	ps.wakeSenders()
	ps.notifyAll()
}

// destroy kills the set: members are orphaned back to direct receive
// (their queues intact) and waiters are failed with reason.
func (ps *portSet) destroy(reason error) {
	ps.mu.Lock()
	if ps.dead {
		ps.mu.Unlock()
		return
	}
	ps.dead = true
	ps.err = reason
	members := ps.members
	ps.members = nil
	ps.sorted = nil
	waiters := ps.waiters
	ps.waiters = nil
	ps.mu.Unlock()
	for _, p := range members {
		p.mu.Lock()
		if p.inSet == ps {
			p.inSet = nil
		}
		p.mu.Unlock()
	}
	for _, w := range waiters {
		w.err = reason
		w.ready <- struct{}{}
	}
	// Senders parked on the set cap re-check and find their ports
	// orphaned back to per-port backpressure.
	ps.wakeSenders()
}

// notifyOne wakes one parked waiter to rescan — the per-message wakeup
// a member's enqueue hands over. With no waiter parked the message just
// sits on its member queue for the next scan to find.
func (ps *portSet) notifyOne() {
	ps.mu.Lock()
	if len(ps.waiters) == 0 {
		ps.mu.Unlock()
		return
	}
	w := ps.waiters[0]
	last := len(ps.waiters) - 1
	copy(ps.waiters, ps.waiters[1:])
	ps.waiters[last] = nil
	ps.waiters = ps.waiters[:last]
	ps.mu.Unlock()
	w.ready <- struct{}{}
}

// notifyAll wakes every parked waiter to rescan (membership changed).
func (ps *portSet) notifyAll() {
	ps.mu.Lock()
	waiters := ps.waiters
	ps.waiters = nil
	ps.mu.Unlock()
	for _, w := range waiters {
		w.ready <- struct{}{}
	}
}

// cancelWaiter unparks w after a successful scan. If a signal won the
// race (w already left the list), the signal is consumed and — because
// it may have announced a message this receive did not take — re-posted
// to the next waiter, so a wake-one signal is never lost.
func (ps *portSet) cancelWaiter(w *recvWaiter) {
	ps.mu.Lock()
	for i, x := range ps.waiters {
		if x == w {
			last := len(ps.waiters) - 1
			copy(ps.waiters[i:], ps.waiters[i+1:])
			ps.waiters[last] = nil
			ps.waiters = ps.waiters[:last]
			ps.mu.Unlock()
			putWaiter(w)
			return
		}
	}
	ps.mu.Unlock()
	<-w.ready
	resignal := w.err == nil
	putWaiter(w)
	if resignal {
		ps.notifyOne()
	}
}

// scan walks the members once in rotation order and takes the oldest
// message of the first member holding one. tryDequeueFor re-checks
// membership under the port lock, so a scan can never take a message
// from a port that concurrently left the set (or was never in it), so
// no message is delivered twice.
func (ps *portSet) scan(sorted []setMember) (*Message, Handler, bool) {
	if len(sorted) == 0 {
		return nil, nil, false
	}
	start := 0
	last := Name(ps.cursor.Load())
	for i := range sorted {
		if sorted[i].n > last {
			start = i
			break
		}
	}
	for i := range sorted {
		c := sorted[(start+i)%len(sorted)]
		if m, h, ok := c.p.tryDequeueFor(ps); ok {
			ps.cursor.Store(uint32(c.n))
			return m, h, true
		}
	}
	return nil, nil, false
}

// receive takes the next message from any member (msg_receive on a port
// set). An empty set fails with ErrNoEnabledPorts — which is how a
// multiplexed server loop learns that every port it served has shut
// down — and a destroyed set fails with the destruction reason. The
// handler is the one the message's member carries.
func (ps *portSet) receive(opts ReceiveOptions) (*Message, Handler, error) {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	for {
		ps.mu.Lock()
		if ps.dead {
			err := ps.err
			ps.mu.Unlock()
			return nil, nil, err
		}
		if len(ps.members) == 0 {
			ps.mu.Unlock()
			return nil, nil, ErrNoEnabledPorts
		}
		sorted := ps.sorted
		var w *recvWaiter
		if !opts.NonBlocking {
			// Register before scanning: a message enqueued after the
			// scan missed it is guaranteed to find this waiter parked.
			w = getWaiter()
			ps.waiters = append(ps.waiters, w)
		}
		ps.mu.Unlock()

		if m, h, ok := ps.scan(sorted); ok {
			if w != nil {
				ps.cancelWaiter(w)
			}
			return m, h, nil
		}
		if opts.NonBlocking {
			return nil, nil, ErrWouldBlock
		}

		if deadline.IsZero() {
			<-w.ready
		} else {
			d := time.Until(deadline)
			if d <= 0 {
				return nil, nil, ps.timeoutWaiter(w)
			}
			w.armTimer(d)
			select {
			case <-w.ready:
				w.disarmTimer()
			case <-w.timer.C:
				return nil, nil, ps.timeoutWaiter(w)
			}
		}
		err := w.err
		putWaiter(w)
		if err != nil {
			return nil, nil, err
		}
		// A rescan signal: loop, re-register, scan again.
	}
}

// timeoutWaiter retires a waiter whose deadline passed. If a signal was
// already posted it is consumed, and a rescan signal is re-posted so
// the wakeup it carried reaches another waiter.
func (ps *portSet) timeoutWaiter(w *recvWaiter) error {
	ps.mu.Lock()
	for i, x := range ps.waiters {
		if x == w {
			last := len(ps.waiters) - 1
			copy(ps.waiters[i:], ps.waiters[i+1:])
			ps.waiters[last] = nil
			ps.waiters = ps.waiters[:last]
			ps.mu.Unlock()
			putWaiter(w)
			return ErrRcvTimedOut
		}
	}
	ps.mu.Unlock()
	<-w.ready
	err := w.err
	resignal := err == nil
	putWaiter(w)
	if resignal {
		ps.notifyOne()
		return ErrRcvTimedOut
	}
	return err
}

// --- Space operations on port sets -----------------------------------------

// AllocatePortSet creates an empty port set and returns its name
// (port_set_allocate). The name denotes no send or receive right: it
// can only be received from, have receive rights moved in and out, and
// be deallocated — which orphans the members back to direct receive.
func (s *Space) AllocatePortSet() (Name, error) {
	if s.dead.Load() {
		return 0, ErrSpaceDead
	}
	ps := newPortSet(s)
	return s.allocEntry(&entry{set: ps})
}

// MoveToPortSet moves the receive right named member into the named
// set (port_set_add / mach_port_move_member). A receive right belongs
// to at most one set: moving a member of another set detaches it from
// that set first. Messages already queued on the member stay on its
// queue and become receivable through the set; parked direct receivers
// are failed with ErrInSet.
func (s *Space) MoveToPortSet(set, member Name) error {
	ps, err := s.resolveSet(set)
	if err != nil {
		return err
	}
	return s.moveToSet(ps, member, nil)
}

// moveToSet makes the receive right named member a member of ps
// carrying handler h.
func (s *Space) moveToSet(ps *portSet, member Name, h Handler) error {
	sh := s.shardFor(member)
	sh.mu.RLock()
	e, ok := sh.names[member]
	if !ok {
		sh.mu.RUnlock()
		return ErrInvalidPort
	}
	if e.set != nil {
		sh.mu.RUnlock()
		return ErrInvalidPort
	}
	if e.rights&ReceiveRight == 0 {
		sh.mu.RUnlock()
		return ErrNotReceiver
	}
	p := e.port
	sh.mu.RUnlock()
	if p.isDead() {
		return ErrDeadName
	}
	for {
		switch err := ps.addMember(member, p, h); err {
		case errRetry:
			if cur := p.currentSet(); cur != nil {
				cur.removeMember(p)
			}
		default:
			return err
		}
	}
}

// RemoveFromPortSet moves the receive right named member out of the
// named set, back to direct receive (port_set_remove). Messages queued
// on the member stay queued and become receivable directly.
func (s *Space) RemoveFromPortSet(set, member Name) error {
	ps, err := s.resolveSet(set)
	if err != nil {
		return err
	}
	sh := s.shardFor(member)
	sh.mu.RLock()
	e, ok := sh.names[member]
	if !ok || e.set != nil {
		sh.mu.RUnlock()
		return ErrInvalidPort
	}
	p := e.port
	sh.mu.RUnlock()
	if !ps.removeMember(p) {
		return ErrNotInSet
	}
	return nil
}

// PortSetMembers returns the current member names of the named set, in
// name order (port_set_status).
func (s *Space) PortSetMembers(set Name) ([]Name, error) {
	ps, err := s.resolveSet(set)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.dead {
		return nil, ErrInvalidPort
	}
	out := make([]Name, len(ps.sorted))
	for i, m := range ps.sorted {
		out[i] = m.n
	}
	return out, nil
}

// resolveSet looks a port-set name up: ErrInvalidPort for a missing
// name, ErrNotSet for an ordinary port right.
func (s *Space) resolveSet(n Name) (*portSet, error) {
	sh := s.shardFor(n)
	sh.mu.RLock()
	e, ok := sh.names[n]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrInvalidPort
	}
	if e.set == nil {
		return nil, ErrNotSet
	}
	return e.set, nil
}
