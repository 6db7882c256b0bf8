// Package lifecycle is the consumer layer over the ipc port-lifecycle
// machinery: it drains a space's kernel notifications — port death
// (ipc.MsgIDPortDeleted) and no-more-senders (ipc.MsgIDNoSenders) — and
// dispatches them to per-name callbacks.
//
// The layer applies the make-send-count staleness check for its users:
// a no-senders notification that raced a newly minted send right fails
// ipc.Space.ConfirmNoSenders and is suppressed, and the request is
// re-armed automatically, so a callback only ever runs when the port
// really had no extant senders at confirmation time. (A right minted
// after confirmation can still race the callback; servers that mint
// rights outside their notification loop must tolerate a freshly handed
// out right naming already-reaped state.)
//
// A space has one Watcher, the handler of the space's notify port in the
// task's ipc.Loop (ServeOn): a pager manager's space is watched by
// pager.Manager.Watcher, which the manager and the servers embedded in
// its loop — fs, netmem, camelot — all register with; a plain
// rpc.Server serves its own on its loop.
package lifecycle

import (
	"sync"

	"repro/internal/ipc"
)

// Watcher dispatches one space's lifecycle notifications to registered
// callbacks. Callbacks run on the goroutine that calls Dispatch: a
// receiver of the loop serving the notify port.
type Watcher struct {
	space *ipc.Space

	mu        sync.Mutex
	deaths    map[ipc.Name]func(ipc.Name)
	noSenders map[ipc.Name]func(ipc.Name)
	deadNames map[ipc.Name]func(ipc.Name)
}

// New creates a watcher over a space's notifications. Use at most one
// watcher per space.
func New(space *ipc.Space) *Watcher {
	return &Watcher{
		space:     space,
		deaths:    make(map[ipc.Name]func(ipc.Name)),
		noSenders: make(map[ipc.Name]func(ipc.Name)),
		deadNames: make(map[ipc.Name]func(ipc.Name)),
	}
}

// Space returns the watched space.
func (w *Watcher) Space() *ipc.Space { return w.space }

// ServeOn makes w the handler of the space's notify port in l, the
// loop that receives the space's notifications. Each is released once
// dispatched.
func (w *Watcher) ServeOn(l *ipc.Loop) error {
	return l.Serve(w.space.NotifyPort(), func(m *ipc.Message) bool {
		w.Dispatch(m)
		return false
	})
}

// OnPortDeath registers fn to run once when the named right's port dies
// (the space must hold a send right for the kernel to notify it).
// Registering again replaces the callback; a nil fn cancels it.
func (w *Watcher) OnPortDeath(n ipc.Name, fn func(ipc.Name)) {
	w.mu.Lock()
	if fn == nil {
		delete(w.deaths, n)
	} else {
		w.deaths[n] = fn
	}
	w.mu.Unlock()
}

// OnNoSenders arms a no-senders request on the named port (the space
// must hold the receive right) and registers fn to run once the
// notification fires and confirms. Stale notifications are suppressed
// and re-armed transparently. Registering again replaces the callback;
// after fn runs, a server wanting further notifications calls
// OnNoSenders again.
func (w *Watcher) OnNoSenders(n ipc.Name, fn func(ipc.Name)) error {
	w.mu.Lock()
	w.noSenders[n] = fn
	w.mu.Unlock()
	if err := w.space.RequestNoSenders(n); err != nil {
		w.mu.Lock()
		delete(w.noSenders, n)
		w.mu.Unlock()
		return err
	}
	return nil
}

// OnDeadName arms a dead-name notification for the named send right
// (ipc.Space.RequestDeadName on the space's notify port) and registers
// fn to run once the name goes dead and the notification confirms. The
// generation staleness check is applied for the caller: a notification
// that raced a deallocate-and-reallocate of the name is suppressed (by
// then the registration is moot — the name no longer means what it
// meant when fn was registered). Registering again replaces the
// callback; the request is one-shot.
//
// OnDeadName differs from OnPortDeath in scope and address: port-death
// notifications fire for every send right the space holds, while a
// dead-name request is armed per name — the Mach shape servers use to
// watch exactly the capabilities they care about.
func (w *Watcher) OnDeadName(n ipc.Name, fn func(ipc.Name)) error {
	w.mu.Lock()
	w.deadNames[n] = fn
	w.mu.Unlock()
	if err := w.space.RequestDeadName(n, w.space.NotifyPort()); err != nil {
		w.mu.Lock()
		delete(w.deadNames, n)
		w.mu.Unlock()
		return err
	}
	return nil
}

// Dispatch examines one received message and consumes it when it is a
// lifecycle notification this watcher has a registration for. It
// reports whether the message was consumed. Only messages that arrived
// on the space's notify port qualify: kernel notifications are only
// ever enqueued there, so a client sending a forged MsgIDPortDeleted to
// an ordinary service port can never consume a registration.
func (w *Watcher) Dispatch(m *ipc.Message) bool {
	if m.LocalPort != w.space.NotifyPort() {
		return false
	}
	switch m.ID {
	case ipc.MsgIDPortDeleted:
		n := ipc.DecodeName(m.InlineData())
		w.mu.Lock()
		fn := w.deaths[n]
		if fn != nil {
			delete(w.deaths, n)
		}
		w.mu.Unlock()
		if fn == nil {
			return false
		}
		fn(n)
		return true
	case ipc.MsgIDDeadName:
		n, gen := ipc.DecodeDeadName(m.InlineData())
		w.mu.Lock()
		fn, ok := w.deadNames[n]
		if ok {
			delete(w.deadNames, n)
		}
		w.mu.Unlock()
		if !ok {
			return false
		}
		if !w.space.ConfirmDeadName(n, gen) {
			// The task deallocated (and possibly reallocated) the name
			// while the notification sat queued: the registration's
			// subject is gone, so the callback must not run.
			return true
		}
		fn(n)
		return true
	case ipc.MsgIDNoSenders:
		n, ms := ipc.DecodeNoSenders(m.InlineData())
		w.mu.Lock()
		fn, ok := w.noSenders[n]
		w.mu.Unlock()
		if !ok {
			return false
		}
		confirmed, err := w.space.ConfirmNoSenders(n, ms)
		if err != nil {
			// The name is gone (the server already deallocated it);
			// the registration is moot.
			w.mu.Lock()
			delete(w.noSenders, n)
			w.mu.Unlock()
			return true
		}
		if !confirmed {
			// A send right was minted while the notification was in
			// flight: suppress it and wait for the next real zero.
			_ = w.space.RequestNoSenders(n)
			return true
		}
		w.mu.Lock()
		delete(w.noSenders, n)
		w.mu.Unlock()
		fn(n)
		return true
	}
	return false
}
