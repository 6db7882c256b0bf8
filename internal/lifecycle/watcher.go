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
// A Watcher integrates in one of two ways:
//
//   - Run (own goroutine): receives on the space's notify port. Use for
//     spaces where no other loop consumes notifications (plain
//     rpc.Server tasks).
//   - Dispatch (embedded): a pager manager's port set holds the
//     space's notify port, so servers built on one — fs, netmem,
//     camelot — chain the watcher ahead of their application demux:
//     Default = func(m) { if !w.Dispatch(m) { srv.Dispatch(m) } }.
package lifecycle

import (
	"sync"

	"repro/internal/ipc"
)

// msgWatcherStop is the private wakeup a Stop call sends to unblock a
// Run loop parked on the notify port.
const msgWatcherStop ipc.MsgID = -150

// Watcher dispatches one space's lifecycle notifications to registered
// callbacks. Callbacks run on the goroutine that calls Dispatch (the
// Run loop, or the embedding manager loop).
type Watcher struct {
	space *ipc.Space

	mu        sync.Mutex
	deaths    map[ipc.Name]func(ipc.Name)
	noSenders map[ipc.Name]func(ipc.Name)
	deadNames map[ipc.Name]func(ipc.Name)
	stopped   bool
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

// OnPortDeath registers fn to run once when the named right's port dies
// (the space must hold a send right for the kernel to notify it).
// Registering again replaces the callback.
func (w *Watcher) OnPortDeath(n ipc.Name, fn func(ipc.Name)) {
	w.mu.Lock()
	w.deaths[n] = fn
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

// Chain returns a dispatch function that consumes lifecycle
// notifications and hands everything else to next — the canonical
// manager-loop integration:
//
//	mgr.Default = w.Chain(srv.Dispatch)
func (w *Watcher) Chain(next func(*ipc.Message)) func(*ipc.Message) {
	return func(m *ipc.Message) {
		if !w.Dispatch(m) {
			next(m)
		}
	}
}

// Run receives on the space's notify port and dispatches until Stop is
// called or the space dies. Only use it when no other loop receives the
// space's notifications: in a pager manager's space the notify port is
// a member of the manager's port set, and a direct receive fails with
// ipc.ErrInSet. Embedded servers use Dispatch instead.
func (w *Watcher) Run() {
	notify := w.space.NotifyPort()
	for {
		m, err := w.space.Receive(notify, ipc.ReceiveOptions{})
		if err != nil {
			return
		}
		if m.ID == msgWatcherStop {
			w.mu.Lock()
			stopped := w.stopped
			w.mu.Unlock()
			if stopped {
				return
			}
			continue
		}
		w.Dispatch(m)
	}
}

// Stop wakes and terminates a Run loop. Dispatch-mode watchers need no
// Stop.
func (w *Watcher) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	// The space holds a send right to its own notify port, so the
	// wakeup is an ordinary (forced) self-send; if the space is already
	// dead the Run loop has exited on its own.
	_ = w.space.Send(&ipc.Message{ID: msgWatcherStop, RemotePort: w.space.NotifyPort()}, ipc.SendOptions{Force: true})
}
