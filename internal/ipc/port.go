package ipc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// DefaultBacklog is the initial limit on queued messages per port, the
// value port_set_backlog adjusts.
const DefaultBacklog = 16

var portIDs atomic.Uint64

// recvWaiter is one receiver parked in dequeue. The sender hands the
// message straight to the waiter (under the port lock) and signals the
// buffered channel, so delivery to a blocked receiver never touches
// namespace state. The timer is lazily created and reused across park
// cycles (a timed receive previously cost a fresh time.NewTimer — three
// allocations — per call).
type recvWaiter struct {
	m     *Message
	err   error
	ready chan struct{} // buffered, capacity 1
	timer *time.Timer   // reused; stopped and drained between uses
}

var waiterPool = sync.Pool{
	New: func() any { return &recvWaiter{ready: make(chan struct{}, 1)} },
}

func getWaiter() *recvWaiter { return waiterPool.Get().(*recvWaiter) }

// putWaiter returns a waiter whose signal (if any) has been consumed
// and whose timer (if any) is stopped with an empty channel.
func putWaiter(w *recvWaiter) {
	w.m = nil
	w.err = nil
	waiterPool.Put(w)
}

// armTimer starts the waiter's reusable timer for d. The timer channel
// is guaranteed empty here: every code path that stops consuming the
// timer either saw it fire (channel drained by the select) or ran
// disarmTimer.
func (w *recvWaiter) armTimer(d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
		return
	}
	w.timer.Reset(d)
}

// disarmTimer retires the timer after a wakeup won the race against the
// deadline, without consuming timer.C. If Stop came too late the timer
// already fired, and the fired value may not have reached the channel
// yet (pre-1.23 timer semantics deliver it asynchronously) — a
// non-blocking drain here can miss it and leave a stale value that
// instantly times out the NEXT receive to reuse this pooled waiter. So
// a timer that fired un-consumed is abandoned instead of drained; the
// race is rare (the wakeup must land inside the deadline's firing
// window), so the replacement allocation is noise.
func (w *recvWaiter) disarmTimer() {
	if !w.timer.Stop() {
		w.timer = nil
	}
}

// Port is a communication channel: a finite-length message queue
// protected by the kernel. A port may have any number of senders but only
// one receiver.
//
// Ports are package-internal; tasks address them through Names in their
// Space. The kern layer may hold *Port directly, playing the role of the
// kernel's own port references.
type Port struct {
	id uint64

	// dead is also readable without the lock (the name-table fast paths
	// check it to report dead names without taking the port lock); it
	// is only ever stored under mu.
	dead atomic.Bool

	mu       sync.Mutex
	sendCond *sync.Cond
	queue    msgRing
	waiters  []*recvWaiter
	backlog  int

	// handoffs tallies parked-receiver handoffs under mu and is flushed
	// to the receiving host's counter every handoffFlushBatch messages
	// (and on receiver change or destroy): the dispatch fast path pays a
	// plain add under a lock it already holds instead of an atomic RMW
	// per message.
	handoffs uint64

	// receiver is the space holding the receive right (nil while the
	// right is in flight inside a message).
	receiver *Space
	// home is the host whose kernel owns the queue; messages are
	// charged as travelling from the sender's host to here.
	home machine.HostID
	// senders holds a refcount per space with send rights, used to
	// deliver port-death notifications and maintain the extant count.
	senders map[*Space]int
	// transit counts send-right references travelling inside queued
	// messages (body sections and reply ports): a right in flight keeps
	// its port referenced even though no space names it yet.
	transit int
	// kernRefs counts kernel-held send references (AddSendRef) — for
	// example the one logical send right a netmsg proxy holds at its
	// home port.
	kernRefs int
	// extant is the no-senders count: transit + kernRefs + one per
	// space in senders other than the current receiver. The receiver's
	// own send right is excluded so a server holding S|R on its service
	// port still learns when its last client is gone.
	extant int
	// makeSend is bumped on every extant increment — the make-send
	// count carried in no-senders notifications, letting a receiver
	// detect (and suppress) a notification that raced a newly minted
	// send right.
	makeSend uint32
	// nsArmed with nsSpace (task receivers) or nsFunc (kernel watchers)
	// is the armed one-shot no-senders request.
	nsArmed bool
	nsSpace *Space
	nsFunc  func(msCount uint32)

	// deathWatch holds kernel-side destruction callbacks by watch id
	// (WatchDeath). The netmsg layer uses them to tear down proxies
	// when the home port dies.
	deathWatch map[uint64]func()
	watchSeq   uint64

	// inSet is the port set this receive right belongs to, nil for
	// direct receive. While set, messages are taken only through the
	// set (direct receive fails with ErrInSet), so one message can never
	// be delivered twice. Guarded by mu; the set's own lock is ordered
	// before mu, so holders of mu hand set wakeups off after unlocking.
	inSet *portSet
}

func newPort(receiver *Space) *Port {
	p := &Port{
		id:       portIDs.Add(1),
		backlog:  DefaultBacklog,
		receiver: receiver,
		senders:  make(map[*Space]int),
	}
	if receiver != nil {
		p.home = receiver.host
	}
	p.sendCond = sync.NewCond(&p.mu)
	return p
}

// ID returns the port's kernel-wide identity, stable across right
// transfers. Data managers can use it to correlate request ports.
func (p *Port) ID() uint64 { return p.id }

// Home returns the host whose kernel currently owns the port's queue
// (the receiver's host). Kernel-side use only: the netmsg layer routes
// forwarded messages by it, and it moves when a receive right is
// inserted into a space on another host.
func (p *Port) Home() machine.HostID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.home
}

// WatchDeath registers fn to run once when the port is destroyed and
// returns a cancel function that removes the registration (so a watcher
// outliving its interest does not pin fn on a long-lived port forever).
// Kernel-side use only (tasks learn of port death through their notify
// ports). If the port is already dead fn runs immediately on the
// caller's goroutine.
func (p *Port) WatchDeath(fn func()) (cancel func()) {
	p.mu.Lock()
	if !p.dead.Load() {
		if p.deathWatch == nil {
			p.deathWatch = make(map[uint64]func())
		}
		p.watchSeq++
		id := p.watchSeq
		p.deathWatch[id] = fn
		p.mu.Unlock()
		return func() {
			p.mu.Lock()
			delete(p.deathWatch, id)
			p.mu.Unlock()
		}
	}
	p.mu.Unlock()
	fn()
	return func() {}
}

// condWait blocks on c until broadcast or until deadline passes (zero
// deadline blocks indefinitely). Returns false if the deadline has
// passed. The caller must hold c.L and must re-check its predicate.
func condWait(c *sync.Cond, deadline time.Time) bool {
	if deadline.IsZero() {
		c.Wait()
		return true
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.AfterFunc(d, func() {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	})
	c.Wait()
	t.Stop()
	return true
}

// enqueue places m on the queue, blocking while the backlog is full
// unless force (kernel notifications) or nonblock is set.
//
// Delivery is entirely per-port state: if a receiver is parked on the
// port the message is handed to it directly (FIFO via the queue head),
// and a member of a port set hands one wakeup to one parked set
// receiver — the lock-split fast path that keeps one sender/receiver
// pair from touching any namespace state.
func (p *Port) enqueue(m *Message, force, nonblock bool, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// stalled counts each send at most once against the receiving
	// host's queue-full metric, however many times the backlog check
	// loops before space opens up.
	stalled := false
	p.mu.Lock()
	for {
		if p.dead.Load() {
			p.mu.Unlock()
			return ErrPortDied
		}
		if force {
			if set := p.inSet; set != nil {
				set.tryCharge(true)
			}
			break
		}
		if p.queue.n >= p.backlog {
			if !stalled {
				stalled = true
				if r := p.receiver; r != nil {
					r.met.Stalls.Inc()
				}
			}
			if nonblock {
				p.mu.Unlock()
				return ErrWouldBlock
			}
			if !condWait(p.sendCond, deadline) {
				p.mu.Unlock()
				return ErrSendTimedOut
			}
			continue
		}
		set := p.inSet
		if set == nil || set.tryCharge(false) {
			break
		}
		// Per-port backlog has room but the set-wide cap is full: park
		// on the set's sender gate. The port lock cannot be held while
		// waiting on set state (lock order), so drop it and re-evaluate
		// everything on wake — the port may have died or left the set.
		if !stalled {
			stalled = true
			if r := p.receiver; r != nil {
				r.met.Stalls.Inc()
			}
		}
		if nonblock {
			p.mu.Unlock()
			return ErrWouldBlock
		}
		p.mu.Unlock()
		if !set.waitSenders(deadline) {
			return ErrSendTimedOut
		}
		p.mu.Lock()
	}
	m.arrivedOn = p
	p.queue.push(m)
	if m.trace != 0 {
		obs.RecordHop(int32(p.home), m.trace, obs.HopEnqueue, int32(m.ID), p.id)
	}
	set := p.inSet
	if set == nil {
		p.dispatchLocked()
	}
	p.mu.Unlock()
	if set != nil {
		set.notifyOne()
	}
	return nil
}

// dispatchLocked hands queued messages to parked receivers (FIFO via
// the queue head). Caller holds p.mu.
func (p *Port) dispatchLocked() {
	handed := uint64(0)
	for len(p.waiters) > 0 && p.queue.n > 0 {
		w := p.popWaiterLocked()
		w.m = p.queue.pop()
		w.ready <- struct{}{}
		handed++
	}
	if handed > 0 {
		p.sendCond.Broadcast()
		p.handoffs += handed
		if p.handoffs >= handoffFlushBatch && p.receiver != nil {
			p.receiver.met.Handoffs.Add(p.handoffs)
			p.handoffs = 0
		}
	}
}

// handoffFlushBatch is how many handoffs a port tallies locally before
// flushing them to the host counter. The counter can read up to
// handoffFlushBatch-1 low while a port idles between flushes — an
// acceptable trade for keeping the per-message dispatch cost at zero
// atomics.
const handoffFlushBatch = 64

// popWaiterLocked removes the oldest parked waiter with a copy-down
// (instead of re-slicing forward, which drifts off the backing array
// and forces the next append to reallocate). Caller holds p.mu and has
// checked the list is non-empty.
func (p *Port) popWaiterLocked() *recvWaiter {
	w := p.waiters[0]
	last := len(p.waiters) - 1
	copy(p.waiters, p.waiters[1:])
	p.waiters[last] = nil
	p.waiters = p.waiters[:last]
	return w
}

// enqueueNotify is the kernel's notification enqueue: it bypasses the
// sender backlog (the kernel must never block delivering a port-death
// or no-senders message) but refuses once the queue holds cap messages,
// so a space that never drains its notify port cannot grow the queue
// without bound under port churn. It reports whether the message was
// queued; undeliverable notifications are counted by the space as dead
// letters.
func (p *Port) enqueueNotify(m *Message, cap int) bool {
	p.mu.Lock()
	if p.dead.Load() || p.queue.n >= cap {
		p.mu.Unlock()
		return false
	}
	m.arrivedOn = p
	p.queue.push(m)
	set := p.inSet
	if set != nil {
		// Counted against the set cap but never blocked, like force.
		set.tryCharge(true)
	} else {
		p.dispatchLocked()
	}
	p.mu.Unlock()
	if set != nil {
		set.notifyOne()
	}
	return true
}

// dequeue removes the oldest message, blocking per the options. nonblock
// takes precedence over timeout. A port in a port set refuses direct
// receives (ErrInSet): its messages arrive only through the set.
func (p *Port) dequeue(nonblock bool, timeout time.Duration) (*Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	p.mu.Lock()
	if p.inSet != nil {
		p.mu.Unlock()
		return nil, ErrInSet
	}
	if p.queue.n > 0 {
		m := p.queue.pop()
		p.sendCond.Broadcast()
		p.mu.Unlock()
		return m, nil
	}
	if p.dead.Load() {
		p.mu.Unlock()
		return nil, ErrPortDied
	}
	if nonblock {
		p.mu.Unlock()
		return nil, ErrWouldBlock
	}
	if !deadline.IsZero() && time.Until(deadline) <= 0 {
		p.mu.Unlock()
		return nil, ErrRcvTimedOut
	}
	w := getWaiter()
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	if deadline.IsZero() {
		<-w.ready
		m, err := w.m, w.err
		putWaiter(w)
		return m, err
	}
	w.armTimer(time.Until(deadline))
	select {
	case <-w.ready:
		w.disarmTimer()
		m, err := w.m, w.err
		putWaiter(w)
		return m, err
	case <-w.timer.C:
		return p.cancelWait(w)
	}
}

// cancelWait unparks a timed-out waiter. If the waiter is still parked it
// is removed and the receive times out; otherwise a handoff (or port
// death) won the race and its signal — already posted, since waiters are
// only signalled under p.mu before leaving the list — is consumed.
func (p *Port) cancelWait(w *recvWaiter) (*Message, error) {
	p.mu.Lock()
	for i, x := range p.waiters {
		if x == w {
			last := len(p.waiters) - 1
			copy(p.waiters[i:], p.waiters[i+1:])
			p.waiters[last] = nil
			p.waiters = p.waiters[:last]
			p.mu.Unlock()
			putWaiter(w)
			return nil, ErrRcvTimedOut
		}
	}
	p.mu.Unlock()
	<-w.ready
	// No disarm: the select consumed timer.C, so the timer is expired
	// and drained — exactly the state armTimer can Reset.
	m, err := w.m, w.err
	putWaiter(w)
	return m, err
}

// tryDequeueFor removes the oldest message without blocking, on behalf
// of a receive on set. The membership check runs under the port lock,
// so a set scan never takes a message from a port that left the set —
// one message, one delivery path, even under concurrent membership
// churn.
func (p *Port) tryDequeueFor(set *portSet) (*Message, bool) {
	p.mu.Lock()
	if p.inSet != set || p.queue.n == 0 {
		p.mu.Unlock()
		return nil, false
	}
	m := p.queue.pop()
	p.sendCond.Broadcast()
	p.mu.Unlock()
	set.discharge(1)
	return m, true
}

// currentSet returns the set this port belongs to, if any.
func (p *Port) currentSet() *portSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inSet
}

// leaveSet detaches the port from whatever set it belongs to — the
// path a migrating receive right takes (a receive right extracted into
// a message leaves its set; the set stays behind with its other
// members, and the right rehomes wherever it is installed).
func (p *Port) leaveSet() {
	for {
		cur := p.currentSet()
		if cur == nil {
			return
		}
		if cur.removeMember(p) {
			return
		}
	}
}

// queued returns the current queue depth.
func (p *Port) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.n
}

// QueueLen returns the current queue depth. Kernel-side use only; the
// netmsg layer refuses to commit a proxy retirement while messages are
// still queued behind the retire sentinel.
func (p *Port) QueueLen() int { return p.queued() }

// status returns queue depth, backlog and liveness in one lock round.
func (p *Port) status() (depth, backlog int, dead bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.n, p.backlog, p.dead.Load()
}

// setBacklog adjusts the queue limit and releases senders waiting on it.
func (p *Port) setBacklog(backlog int) {
	p.mu.Lock()
	p.backlog = backlog
	p.sendCond.Broadcast()
	p.mu.Unlock()
}

// incExtantLocked records a new extant send reference. Caller holds
// p.mu. Every increment bumps the make-send count, so a no-senders
// notification in flight is detectably stale the moment any reference
// comes into existence.
func (p *Port) incExtantLocked() {
	p.extant++
	p.makeSend++
}

// nsFiring is a consumed no-senders request waiting to run: a value,
// not a closure, so firing never allocates on the send/receive fast
// path (the reference counts are maintained inside locks the path
// already takes). Exactly one of fn and sp is set when pending.
type nsFiring struct {
	fn func(uint32)
	sp *Space
	p  *Port
	ms uint32
}

// run delivers the notification. Must be called with no port locks
// held — it enqueues on another port.
func (f *nsFiring) run() {
	if f.fn != nil {
		f.fn(f.ms)
	} else if f.sp != nil {
		f.sp.notifyNoSenders(f.p, f.ms)
	}
}

// pending reports whether the firing holds a consumed request.
func (f *nsFiring) pending() bool { return f.fn != nil || f.sp != nil }

// decExtantLocked drops one extant send reference and, on the
// transition to zero, consumes an armed no-senders request into fire.
// Caller holds p.mu; a pending fire must be run after the lock is
// released.
func (p *Port) decExtantLocked(fire *nsFiring) {
	if p.extant--; p.extant > 0 || !p.nsArmed {
		return
	}
	p.nsArmed = false
	fire.ms = p.makeSend
	if fn := p.nsFunc; fn != nil {
		p.nsFunc = nil
		fire.fn = fn
		return
	}
	if sp := p.nsSpace; sp != nil {
		p.nsSpace = nil
		fire.sp, fire.p = sp, p
	}
}

// addSender registers a space as holding send rights. A right to a dead
// port is a "dead name": sends fail, no notification will come.
func (p *Port) addSender(s *Space) {
	p.mu.Lock()
	if !p.dead.Load() {
		p.senders[s]++
		if p.senders[s] == 1 && s != p.receiver {
			p.incExtantLocked()
		}
	}
	p.mu.Unlock()
}

// dropSender removes one send-right reference for a space.
func (p *Port) dropSender(s *Space) {
	var fire nsFiring
	p.mu.Lock()
	if !p.dead.Load() {
		if c, ok := p.senders[s]; ok {
			if c--; c <= 0 {
				delete(p.senders, s)
				if s != p.receiver {
					p.decExtantLocked(&fire)
				}
			} else {
				p.senders[s] = c
			}
		}
	}
	p.mu.Unlock()
	fire.run()
}

// addTransit records one send-right reference entering a queued message
// (a body section or a reply port). No-op on a dead port: the message
// cannot be enqueued there anyway.
func (p *Port) addTransit() {
	p.mu.Lock()
	if !p.dead.Load() {
		p.transit++
		p.incExtantLocked()
	}
	p.mu.Unlock()
}

// dropTransit releases a reference taken by addTransit, after the right
// was installed in the receiving space or destroyed with its message.
func (p *Port) dropTransit() {
	var fire nsFiring
	p.mu.Lock()
	if !p.dead.Load() {
		p.transit--
		p.decExtantLocked(&fire)
	}
	p.mu.Unlock()
	fire.run()
}

// AddSendRef takes a kernel-held send reference on the port: it counts
// toward the no-senders total exactly like a space-held send right.
// Kernel-side use only — the netmsg layer pins proxies and charges each
// proxy's one logical send right at its home port with it.
func (p *Port) AddSendRef() {
	p.mu.Lock()
	if !p.dead.Load() {
		p.kernRefs++
		p.incExtantLocked()
	}
	p.mu.Unlock()
}

// DropSendRef releases a kernel-held send reference taken by
// AddSendRef, firing an armed no-senders request if it was the last
// extant reference.
func (p *Port) DropSendRef() {
	var fire nsFiring
	p.mu.Lock()
	if !p.dead.Load() {
		p.kernRefs--
		p.decExtantLocked(&fire)
	}
	p.mu.Unlock()
	fire.run()
}

// SendRefs returns the current count of extant send references.
// Kernel-side use only; the netmsg layer re-checks it (under its own
// handout lock) before committing a proxy retirement.
func (p *Port) SendRefs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.extant
}

// MakeSendCount returns the port's monotone make-send counter.
// Kernel-side diagnostic.
func (p *Port) MakeSendCount() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.makeSend
}

// WatchNoSenders arms a one-shot kernel-side no-senders request: fn
// runs with the port's make-send count when the count of extant send
// references next drops to zero. Arming replaces any earlier request.
// Unlike Mach, a request armed while the count is already zero does not
// fire immediately — it waits for the next transition to zero, which
// lets a watcher arm a freshly built port before its first right is
// minted. On a dead port the request never fires (death watches cover
// that path). fn must not block: it runs on whatever goroutine dropped
// the last reference.
func (p *Port) WatchNoSenders(fn func(msCount uint32)) {
	p.mu.Lock()
	if !p.dead.Load() {
		p.nsFunc = fn
		p.nsSpace = nil
		p.nsArmed = true
	}
	p.mu.Unlock()
}

// setReceiver installs the space now holding the receive right and
// rehomes the queue to its host. The receiver's own send right is
// excluded from the no-senders count, so the count is adjusted when the
// receive right moves between spaces that also hold send rights.
func (p *Port) setReceiver(s *Space) {
	var fire nsFiring
	p.mu.Lock()
	if !p.dead.Load() && s != p.receiver {
		old := p.receiver
		if old != nil && p.handoffs > 0 {
			old.met.Handoffs.Add(p.handoffs)
			p.handoffs = 0
		}
		p.receiver = s
		if s != nil {
			p.home = s.host
		}
		if old != nil && p.senders[old] > 0 {
			p.incExtantLocked()
		}
		if s != nil && p.senders[s] > 0 {
			p.decExtantLocked(&fire)
		}
	}
	p.mu.Unlock()
	fire.run()
}

// destroy kills the port: the queue is drained (destroying any rights in
// flight), blocked senders and receivers are woken with ErrPortDied, and
// every space holding send rights is sent a port-death notification on
// its notify port.
func (p *Port) destroy() {
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		return
	}
	p.dead.Store(true)
	dropped := p.queue.drain()
	p.queue.buf = nil
	if p.receiver != nil && p.handoffs > 0 {
		p.receiver.met.Handoffs.Add(p.handoffs)
		p.handoffs = 0
	}
	p.receiver = nil
	notify := make([]*Space, 0, len(p.senders))
	for s := range p.senders {
		notify = append(notify, s)
	}
	p.senders = nil
	p.transit, p.kernRefs, p.extant = 0, 0, 0
	p.nsArmed, p.nsSpace, p.nsFunc = false, nil, nil
	watch := p.deathWatch
	p.deathWatch = nil
	// A dying member leaves its set (the set lock is ordered before the
	// port lock, so the set-side cleanup runs after the unlock below).
	set := p.inSet
	p.inSet = nil
	for _, w := range p.waiters {
		w.err = ErrPortDied
		w.ready <- struct{}{}
	}
	p.waiters = nil
	p.sendCond.Broadcast()
	p.mu.Unlock()

	if set != nil {
		set.forgetPort(p, len(dropped))
	}
	// Dispose of rights carried by undelivered messages: receive rights
	// destroy their ports, send rights drop their transit references.
	for _, m := range dropped {
		m.destroyRights()
	}
	for _, fn := range watch {
		fn()
	}
	for _, s := range notify {
		s.notifyPortDeath(p)
	}
}

// isDead reports whether the port has been destroyed.
func (p *Port) isDead() bool { return p.dead.Load() }
