package ipc

import (
	"bytes"
	"runtime"
	"sync"
)

// Handler serves one message a Loop received on the port the handler
// was registered for. It reports whether it kept the message: a kept
// message is the handler's to Release, every other one the loop
// releases as soon as the handler returns.
type Handler func(m *Message) (kept bool)

// Loop is a server task's one receive point, the paper's server shape
// (§4-§5): a port set whose members each carry a Handler, drained by one
// or more receivers. Every message is dispatched to the handler of the
// port it arrived on — so a message sent to one port can never reach
// another port's handler — and released by the loop unless the handler
// kept it.
//
// A loop runs from Run until Stop, until its space dies, or until it has
// no member left (nothing can arrive then): add the ports it serves
// before Run.
type Loop struct {
	space *Space
	set   Name
	ps    *portSet // nil when the space was already dead at NewLoop

	mu      sync.Mutex
	exited  sync.Cond // a receiver or a Run returned
	stopped bool
	// live counts the receivers Run started that have not returned, and
	// runs the Run calls that have not returned.
	live, runs int
	// receivers maps the goroutine id of each running receiver that has
	// called a handler to whether it is inside Stop (a handler stopping
	// its own loop); stopping counts those that are. Stop waits for every
	// other receiver. A receiver reads its id when it first calls a
	// handler: reading one costs microseconds, and only a handler can
	// call Stop from a receiver.
	receivers map[uint64]bool
	stopping  int
}

// NewLoop allocates a loop's port set on s. On a dead space the loop is
// born stopped: Serve fails and Run returns at once.
func NewLoop(s *Space) *Loop {
	l := &Loop{space: s}
	l.exited.L = &l.mu
	ps := newPortSet(s)
	if set, err := s.allocEntry(&entry{set: ps}); err == nil {
		l.set, l.ps = set, ps
	} else {
		l.stopped = true
	}
	return l
}

// Serve moves the receive right n into the loop, with h as the handler
// of every message that arrives on it; serving a member again replaces
// its handler. A receive right belongs to one loop (one port set) at a
// time: serving it here moves it out of any other. The right leaves the
// loop when it is deallocated or moved out.
func (l *Loop) Serve(n Name, h Handler) error {
	if l.ps == nil {
		return ErrSpaceDead
	}
	return l.space.moveToSet(l.ps, n, h)
}

// Run serves the loop on workers receivers — the calling goroutine and
// workers-1 more — and returns once every one of them has returned.
// With more than one receiver, handlers run concurrently and must be
// safe for it.
func (l *Loop) Run(workers int) {
	workers = max(workers, 1)
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.live += workers
	l.runs++
	l.mu.Unlock()
	for i := 1; i < workers; i++ {
		go l.receive()
	}
	l.receive()
	l.mu.Lock()
	for l.live > 0 {
		l.exited.Wait()
	}
	l.runs--
	l.exited.Broadcast()
	l.mu.Unlock()
}

// receive is one receiver: it takes the next message from any member,
// hands it to that member's handler and releases it unless the handler
// kept it, until the set dies or empties.
func (l *Loop) receive() {
	var id uint64
	for {
		m, h, err := l.ps.receive(ReceiveOptions{})
		if err != nil {
			break
		}
		l.space.received(m)
		if h == nil {
			m.Release()
			continue
		}
		if id == 0 {
			id = goid()
			l.mu.Lock()
			if l.receivers == nil {
				l.receivers = make(map[uint64]bool)
			}
			l.receivers[id] = false
			l.mu.Unlock()
		}
		if !h(m) {
			m.Release()
		}
	}
	l.mu.Lock()
	if l.receivers[id] {
		l.stopping--
	}
	delete(l.receivers, id)
	l.live--
	l.exited.Broadcast()
	l.mu.Unlock()
}

// Stop destroys the loop's port set — its members go back to direct
// receive with their queues intact — and waits until every receiver has
// finished the message it is serving and every Run has returned. A
// handler that stops its own loop waits for the other receivers only.
// Stop may be called more than once, and before Run, which then returns
// at once.
func (l *Loop) Stop() {
	l.mu.Lock()
	first := !l.stopped
	l.stopped = true
	l.mu.Unlock()
	if first {
		// Fails only if the space already died, which destroyed the set.
		_ = l.space.DeallocatePort(l.set)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Only a receiver that has called a handler can be the caller.
	var id uint64
	if len(l.receivers) > 0 {
		id = goid()
	}
	inStop, receiver := l.receivers[id]
	if !receiver {
		for l.live > 0 || l.runs > 0 {
			l.exited.Wait()
		}
		return
	}
	if !inStop {
		l.receivers[id] = true
		l.stopping++
	}
	for l.live > l.stopping {
		l.exited.Wait()
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
