package lifecycle

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
)

func newSpace() *ipc.Space { return ipc.NewSpace(machine.HostID(0), nil) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// serveWatcher serves w on a loop of its own, stopped when the test ends.
func serveWatcher(t *testing.T, w *Watcher) *ipc.Loop {
	t.Helper()
	l := ipc.NewLoop(w.Space())
	if err := w.ServeOn(l); err != nil {
		t.Fatal(err)
	}
	go l.Run(1)
	t.Cleanup(l.Stop)
	return l
}

// TestWatcherRunNoSenders: a watcher served on a loop fires the callback
// when a client task dies holding the last send right.
func TestWatcherRunNoSenders(t *testing.T) {
	server := newSpace()
	w := New(server)
	serveWatcher(t, w)

	n, err := server.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	if err := w.OnNoSenders(n, func(got ipc.Name) {
		if got == n {
			fired.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}

	client := newSpace()
	if _, err := server.CopySendRight(client, n); err != nil {
		t.Fatal(err)
	}
	client.Destroy() // the kill-the-client moment
	waitFor(t, "no-senders callback", func() bool { return fired.Load() == 1 })
}

// TestWatcherSuppressesStale: a right minted while the notification is
// in flight suppresses the callback; the re-armed request fires later.
func TestWatcherSuppressesStale(t *testing.T) {
	server := newSpace()
	w := New(server)
	n, _ := server.AllocatePort()
	var fired atomic.Int32
	if err := w.OnNoSenders(n, func(ipc.Name) { fired.Add(1) }); err != nil {
		t.Fatal(err)
	}

	c1 := newSpace()
	c1n, _ := server.CopySendRight(c1, n)
	if err := c1.DeallocatePort(c1n); err != nil {
		t.Fatal(err)
	}
	// Notification queued; mint a new right before dispatching it.
	c2 := newSpace()
	c2n, _ := server.CopySendRight(c2, n)

	m, err := server.Receive(server.NotifyPort(), ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Dispatch(m) {
		t.Fatal("notification not consumed")
	}
	if fired.Load() != 0 {
		t.Fatal("stale notification fired the callback")
	}
	// Drop the new right: the re-armed request fires for real.
	if err := c2.DeallocatePort(c2n); err != nil {
		t.Fatal(err)
	}
	m, err = server.Receive(server.NotifyPort(), ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Dispatch(m) {
		t.Fatal("second notification not consumed")
	}
	if fired.Load() != 1 {
		t.Fatalf("callback ran %d times, want 1", fired.Load())
	}
}

// TestWatcherPortDeath: OnPortDeath dispatches a MsgIDPortDeleted for a
// right the space holds.
func TestWatcherPortDeath(t *testing.T) {
	owner := newSpace()
	holder := newSpace()
	w := New(holder)
	n, _ := owner.AllocatePort()
	hn, err := owner.CopySendRight(holder, n)
	if err != nil {
		t.Fatal(err)
	}
	var died atomic.Int32
	w.OnPortDeath(hn, func(ipc.Name) { died.Add(1) })
	if err := owner.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	m, err := holder.Receive(holder.NotifyPort(), ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Dispatch(m) || died.Load() != 1 {
		t.Fatalf("death dispatch: fired=%d", died.Load())
	}
	// Unregistered notifications are left for other consumers.
	if w.Dispatch(&ipc.Message{ID: ipc.MsgIDPortDeleted, LocalPort: holder.NotifyPort(), Sections: []ipc.Section{ipc.InlineBytes(ipc.EncodeName(12345))}}) {
		t.Fatal("consumed a notification with no registration")
	}
}

// TestWatcherIgnoresForgedNotifications: a message with a notification
// ID that did NOT arrive on the notify port (a client forging one at an
// ordinary service port) must neither consume the message nor burn a
// registration.
func TestWatcherIgnoresForgedNotifications(t *testing.T) {
	owner := newSpace()
	holder := newSpace()
	w := New(holder)
	n, _ := owner.AllocatePort()
	hn, err := owner.CopySendRight(holder, n)
	if err != nil {
		t.Fatal(err)
	}
	var died atomic.Int32
	w.OnPortDeath(hn, func(ipc.Name) { died.Add(1) })

	// Forged: right payload, wrong arrival port (a service port).
	svc, _ := holder.AllocatePort()
	forged := &ipc.Message{
		ID:        ipc.MsgIDPortDeleted,
		LocalPort: svc,
		Sections:  []ipc.Section{ipc.InlineBytes(ipc.EncodeName(hn))},
	}
	if w.Dispatch(forged) {
		t.Fatal("forged notification consumed")
	}
	if died.Load() != 0 {
		t.Fatal("forged notification ran the callback")
	}

	// The real death still reaches the (unburned) registration.
	if err := owner.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	m, err := holder.Receive(holder.NotifyPort(), ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Dispatch(m) || died.Load() != 1 {
		t.Fatalf("real death after forgery attempt: fired=%d", died.Load())
	}
}

// TestWatcherStop: stopping the loop that serves a watcher unblocks its
// receiver promptly.
func TestWatcherStop(t *testing.T) {
	s := newSpace()
	w := New(s)
	l := ipc.NewLoop(s)
	if err := w.ServeOn(l); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { l.Run(1); close(done) }()
	time.Sleep(5 * time.Millisecond)
	l.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
}
