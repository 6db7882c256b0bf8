package lifecycle

import (
	"sync/atomic"
	"testing"

	"repro/internal/ipc"
)

// TestWatcherOnDeadName: a watcher served on a loop fires the dead-name
// callback when the watched send right's port dies elsewhere.
func TestWatcherOnDeadName(t *testing.T) {
	client := newSpace()
	w := New(client)
	serveWatcher(t, w)

	server := newSpace()
	defer server.Destroy()
	svc, err := server.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	cn, err := server.CopySendRight(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	if err := w.OnDeadName(cn, func(got ipc.Name) {
		if got == cn {
			fired.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := server.DeallocatePort(svc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dead-name callback", func() bool { return fired.Load() == 1 })
	// The name is a dead name the task still holds; cleaning it up is
	// the callback's job in real servers.
	if _, err := client.Resolve(cn); err != ipc.ErrDeadName {
		t.Fatalf("resolve: %v, want ErrDeadName", err)
	}
}

// TestWatcherOnDeadNameAlreadyDead: arming against an already dead name
// fails fast with ErrDeadName and removes the registration.
func TestWatcherOnDeadNameAlreadyDead(t *testing.T) {
	client := newSpace()
	defer client.Destroy()
	w := New(client)
	server := newSpace()
	defer server.Destroy()
	svc, _ := server.AllocatePort()
	cn, _ := server.CopySendRight(client, svc)
	_ = server.DeallocatePort(svc)
	if err := w.OnDeadName(cn, func(ipc.Name) {}); err != ipc.ErrDeadName {
		t.Fatalf("got %v, want ErrDeadName", err)
	}
	w.mu.Lock()
	_, registered := w.deadNames[cn]
	w.mu.Unlock()
	if registered {
		t.Fatal("failed arm left a registration behind")
	}
}

// TestWatcherDeadNameStaleSuppressed: the callback must NOT run when
// the task deallocated (and the allocator reused) the name while the
// notification was queued — the generation check fails and the message
// is consumed silently.
func TestWatcherDeadNameStaleSuppressed(t *testing.T) {
	client := newSpace()
	defer client.Destroy()
	w := New(client)

	server := newSpace()
	defer server.Destroy()
	svc, _ := server.AllocatePort()
	cn, _ := server.CopySendRight(client, svc)
	var fired atomic.Int32
	if err := w.OnDeadName(cn, func(ipc.Name) { fired.Add(1) }); err != nil {
		t.Fatal(err)
	}
	_ = server.DeallocatePort(svc)
	// The notification now sits queued. Deallocate the dead name before
	// dispatching it — the binding the registration was about is gone.
	if err := client.DeallocatePort(cn); err != nil {
		t.Fatal(err)
	}
	m, err := client.Receive(client.NotifyPort(), ipc.ReceiveOptions{NonBlocking: true})
	for err == nil {
		if m.ID == ipc.MsgIDDeadName {
			if !w.Dispatch(m) {
				t.Fatal("dead-name notification not consumed")
			}
		} else {
			w.Dispatch(m)
		}
		m, err = client.Receive(client.NotifyPort(), ipc.ReceiveOptions{NonBlocking: true})
	}
	if fired.Load() != 0 {
		t.Fatal("stale dead-name callback ran")
	}
}
