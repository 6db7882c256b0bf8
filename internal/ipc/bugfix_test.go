package ipc

// Regression tests for two IPC correctness fixes:
//
//  1. Send requires a send or receive right for the reply port named in
//     LocalPort, instead of mere existence of the name.
//  2. deliver destroys a transferred receive right that cannot be
//     installed (dying space), instead of silently orphaning the port.

import (
	"errors"
	"testing"
	"time"
)

// TestSendReplyPortRequiresRight names a port the sender holds no send
// or receive right to as the reply port and asserts the send is
// rejected. Entries without rights cannot be minted through the public
// API (every allocation or insertion grants at least one), so the
// zero-rights entry is forged directly — the check still matters: it is
// what keeps a future right kind (or a bookkeeping bug) from letting a
// task smuggle a send right it was never granted.
func TestSendReplyPortRequiresRight(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()

	dst, err := s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shardFor(reply)
	sh.mu.Lock()
	sh.names[reply].rights = 0
	sh.mu.Unlock()

	err = s.Send(&Message{ID: 1, RemotePort: dst, LocalPort: reply}, SendOptions{NonBlocking: true})
	if !errors.Is(err, ErrInvalidPort) {
		t.Fatalf("send with rightless reply port: got %v, want ErrInvalidPort", err)
	}
	// Nothing must have been enqueued.
	if st, err := s.Status(dst); err != nil || st.NumMsgs != 0 {
		t.Fatalf("message leaked past the rights check: status %+v err %v", st, err)
	}

	// A receive-only right IS a valid reply port (msg_receive there is
	// exactly what msg_rpc does).
	recvOnly := NewSpace(0, nil)
	defer recvOnly.Destroy()
	p := newPort(nil)
	rn, err := recvOnly.InsertRight(p, ReceiveRight)
	if err != nil {
		t.Fatal(err)
	}
	dst2, err := recvOnly.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if err := recvOnly.Send(&Message{ID: 2, RemotePort: dst2, LocalPort: rn}, SendOptions{NonBlocking: true}); err != nil {
		t.Fatalf("send with receive-only reply port: %v", err)
	}
}

// TestSendPartialSectionFailureDestroysExtractedRights sends a message
// whose first section carries a receive right and whose second section
// fails to resolve: the already-extracted receive right must be
// destroyed, not orphaned (it has left the space and can never be
// delivered).
func TestSendPartialSectionFailureDestroysExtractedRights(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	dst, err := s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	carried, err := s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	carriedPort, err := s.Resolve(carried)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Send(&Message{
		ID:         1,
		RemotePort: dst,
		Sections: []Section{
			CarryRight(carried, SendRight|ReceiveRight),
			CarryRight(Name(0xdeadbeef), SendRight), // does not exist
		},
	}, SendOptions{NonBlocking: true})
	if !errors.Is(err, ErrInvalidPort) {
		t.Fatalf("send with unresolvable section: got %v, want ErrInvalidPort", err)
	}
	if !carriedPort.isDead() {
		t.Fatal("extracted receive right orphaned by failed send")
	}
}

// TestDeliverIntoDyingSpaceDestroysReceiveRight models the race where a
// receiver dequeues a message carrying a receive right and its space is
// destroyed before delivery installs the right. The orphaned port must
// be destroyed (dead-name semantics) — before the fix it leaked alive
// with no receiver, so senders blocked on it forever and never learned
// of its death.
func TestDeliverIntoDyingSpaceDestroysReceiveRight(t *testing.T) {
	sender := NewSpace(0, nil)
	defer sender.Destroy()
	recv := NewSpace(0, nil)

	carried, err := sender.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	carriedPort, err := sender.Resolve(carried)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := recv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	dstName, err := recv.CopySendRight(sender, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(&Message{
		ID:         1,
		RemotePort: dstName,
		Sections:   []Section{CarryRight(carried, SendRight|ReceiveRight)},
	}, SendOptions{}); err != nil {
		t.Fatal(err)
	}

	// Dequeue raw (as Receive does internally), then kill the space
	// before the delivery step runs — the deterministic version of the
	// destroy-between-dequeue-and-deliver race.
	dstPort, err := recv.Resolve(dst)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dstPort.dequeue(false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recv.Destroy()
	recv.deliver(m)

	if m.Sections[0].PortName != 0 {
		t.Fatalf("delivery into a dead space produced name %v", m.Sections[0].PortName)
	}
	if !carriedPort.isDead() {
		t.Fatal("receive right orphaned: carried port still alive with no possible receiver")
	}
	// The sender kept no rights (the receive right was extracted and the
	// send right copied), but a third space holding a send right must
	// see the death as a failed send rather than an eternal block.
	third := NewSpace(0, nil)
	defer third.Destroy()
	n, err := third.InsertRight(carriedPort, SendRight)
	if !errors.Is(err, ErrPortDied) {
		// Insertion into a dead port may fail fast; if it succeeded the
		// send itself must fail.
		if err != nil {
			t.Fatalf("insert send right: %v", err)
		}
		if err := third.Send(&Message{ID: 2, RemotePort: n}, SendOptions{NonBlocking: true}); !errors.Is(err, ErrPortDied) {
			t.Fatalf("send to destroyed carried port: got %v, want ErrPortDied", err)
		}
	}
}
