package fs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ipc"
)

func waitForSessions(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.OpenSessions() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("open sessions stuck at %d, want %d", srv.OpenSessions(), want)
}

// TestOpenHandleReadAt: the open-handle protocol reads file contents
// through the session capability, and Close reaps the session.
func TestOpenHandleReadAt(t *testing.T) {
	_, srv, client := newFS(t)
	content := bytes.Repeat([]byte("duality "), 100) // ~800 bytes, 4 pages
	if err := srv.CreateFile("f", content); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Size != uint64(len(content)) {
		t.Fatalf("open size %d, want %d", h.Size, len(content))
	}
	if srv.OpenSessions() != 1 {
		t.Fatalf("open sessions %d, want 1", srv.OpenSessions())
	}
	// Reads at offsets spanning page boundaries.
	got, err := h.ReadAt(250, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[250:270]) {
		t.Fatalf("read %q, want %q", got, content[250:270])
	}
	// A read past EOF truncates.
	got, err = h.ReadAt(uint64(len(content))-4, 100)
	if err != nil || len(got) != 4 {
		t.Fatalf("tail read %d bytes, err %v", len(got), err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 0)
	if srv.SessionsReaped() != 1 {
		t.Fatalf("sessions reaped %d, want 1", srv.SessionsReaped())
	}
	// The handle is now stale server-side; a second client opening gets
	// a fresh session.
	if _, err := Open(client, svc, "f"); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 1)
}

// TestOpenHandleReapedOnClientDeath is the fs kill-the-client test: a
// client dying with handles open has its sessions reaped by the
// no-senders machinery, with no explicit cleanup call anywhere.
func TestOpenHandleReapedOnClientDeath(t *testing.T) {
	k, srv, client := newFS(t)
	if err := srv.CreateFile("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateFile("b", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := Open(client, svc, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(client, svc, "b"); err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 2)
	if _, err := ha.ReadAt(0, 4); err != nil {
		t.Fatal(err)
	}

	// A survivor holds its own handle; only the dead client's session
	// must go.
	survivor := k.NewTask()
	svc2, err := srv.Publish(survivor)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Open(survivor, svc2, "a")
	if err != nil {
		t.Fatal(err)
	}
	waitForSessions(t, srv, 3)

	client.Terminate()
	waitForSessions(t, srv, 1)
	if got, err := hs.ReadAt(0, 4); err != nil || string(got) != "aaaa" {
		t.Fatalf("survivor read %q, %v", got, err)
	}
	if srv.SessionsReaped() != 2 {
		t.Fatalf("sessions reaped %d, want 2", srv.SessionsReaped())
	}
}

// TestForgedPortDeathIgnored: a client forges the kernel's port-death
// notice for a mapped file's request port and sends it to the service
// port. Notices are acted on only where the kernel posts them — the
// notify port — so the object stays registered and the file still reads
// through its mapping.
func TestForgedPortDeathIgnored(t *testing.T) {
	_, srv, client := newFS(t)
	content := bytes.Repeat([]byte("forged "), 100)
	if err := srv.CreateFile("f", content); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	addr, size, err := ReadFile(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	mo := srv.files["f"].mo
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.mgr.RequestPortReady(mo) {
		if time.Now().After(deadline) {
			t.Fatal("pager_init never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	forged := &ipc.Message{
		ID:         ipc.MsgIDPortDeleted,
		RemotePort: svc,
		Sections:   []ipc.Section{ipc.InlineBytes(ipc.EncodeName(mo.Request))},
	}
	if err := client.Space.Send(forged, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	// A call behind the forgery on the same port: once it is answered,
	// the forged notice has been served.
	if _, err := List(client, svc); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.mgr.Object(mo.Port); !ok {
		t.Fatal("a forged port-death notice unregistered the file's memory object")
	}
	got, err := client.VMRead(addr, size)
	if err != nil {
		t.Fatalf("read through the mapping after the forgery: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after the forgery")
	}
}
