package ipc

import (
	"sync"
	"testing"
	"time"
)

// TestRPCTimeoutOnSilentServer: msg_rpc with a receive timeout returns
// ErrRcvTimedOut when the server never answers, and the temporary reply
// port is cleaned up.
func TestRPCTimeoutOnSilentServer(t *testing.T) {
	server := NewSpace(0, nil)
	client := NewSpace(0, nil)
	svc, _ := server.AllocatePort()
	p, _ := server.Resolve(svc)
	name, _ := client.InsertRight(p, SendRight)
	start := time.Now()
	_, err := client.RPC(&Message{ID: 1, RemotePort: name}, time.Second, 40*time.Millisecond)
	if err != ErrRcvTimedOut {
		t.Fatalf("rpc to silent server: %v", err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
	// The server received the request; its reply port is already dead
	// (the client deallocated the temp port) — sending must fail, not
	// hang or panic.
	m, err := server.Receive(svc, ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.RemotePort != 0 {
		// If a name was installed despite the death race, replying
		// must fail cleanly rather than hang.
		err = server.Send(&Message{ID: 2, RemotePort: m.RemotePort}, SendOptions{Timeout: 100 * time.Millisecond})
		if err != ErrPortDied && err != ErrInvalidPort && err != ErrDeadName {
			t.Fatalf("late reply: %v", err)
		}
	}
}

// TestReceiveRightMoveWhileSenderBlocked: moving a receive right rehomes
// the queue; a sender blocked on the backlog is still delivered to the
// new receiver.
func TestReceiveRightMoveDeliversToNewHome(t *testing.T) {
	a := NewSpace(0, nil)
	b := NewSpace(1, nil)
	moved, _ := a.AllocatePort()
	a.SetBacklog(moved, 1)
	if err := a.Send(&Message{ID: 1, RemotePort: moved}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	// A second sender blocks on the full backlog.
	done := make(chan error, 1)
	go func() { done <- a.Send(&Message{ID: 2, RemotePort: moved}, SendOptions{}) }()
	time.Sleep(10 * time.Millisecond)

	// Move the receive right to b.
	chanB, _ := b.AllocatePort()
	bp, _ := b.Resolve(chanB)
	aName, _ := a.InsertRight(bp, SendRight)
	if err := a.Send(&Message{RemotePort: aName, Sections: []Section{CarryRight(moved, ReceiveRight)}}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive(chanB, ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	newName := got.Sections[0].PortName
	// b drains both messages; the blocked sender completes.
	m1, err := b.Receive(newName, ReceiveOptions{Timeout: time.Second})
	if err != nil || m1.ID != 1 {
		t.Fatalf("first: %v %+v", err, m1)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked sender: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender never unblocked after move")
	}
	m2, err := b.Receive(newName, ReceiveOptions{Timeout: time.Second})
	if err != nil || m2.ID != 2 {
		t.Fatalf("second: %v %+v", err, m2)
	}
}

// TestRightsInDroppedMessagesDestroyed: a receive right buried in a
// queued message is destroyed with the port it was queued on, and the
// right's holders are notified.
func TestRightsInDroppedMessagesDestroyed(t *testing.T) {
	a := NewSpace(0, nil)
	holder := NewSpace(0, nil)
	// The carried port: holder has a send right to it (to observe its
	// death).
	carried, _ := a.AllocatePort()
	cp, _ := a.Resolve(carried)
	holder.InsertRight(cp, SendRight)
	// Queue a message carrying the RECEIVE right on another port of a.
	dest, _ := a.AllocatePort()
	if err := a.Send(&Message{RemotePort: dest, Sections: []Section{CarryRight(carried, ReceiveRight)}}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	// Destroy the destination port without ever receiving.
	a.DeallocatePort(dest)
	// The carried port must now be dead: holder gets a notification.
	m, err := holder.Receive(holder.NotifyPort(), ReceiveOptions{Timeout: time.Second})
	if err != nil || m.ID != MsgIDPortDeleted {
		t.Fatalf("holder notification: %v %+v", err, m)
	}
}

// TestManyToOneFIFOPerSender: each sender's messages arrive in its send
// order.
func TestManyToOneFIFOPerSender(t *testing.T) {
	s := NewSpace(0, nil)
	n, _ := s.AllocatePort()
	s.SetBacklog(n, 256)
	const senders, msgs = 4, 32
	var wg sync.WaitGroup
	for id := 0; id < senders; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := s.Send(&Message{ID: MsgID(id*1000 + i), RemotePort: n}, SendOptions{}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	last := map[int]int{}
	for i := 0; i < senders*msgs; i++ {
		m, err := s.Receive(n, ReceiveOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sender := int(m.ID) / 1000
		seq := int(m.ID) % 1000
		if prev, ok := last[sender]; ok && seq != prev+1 {
			t.Fatalf("sender %d out of order: %d after %d", sender, seq, prev)
		}
		last[sender] = seq
	}
}

// TestSelfRPCDoesNotDeadlockWithTimeout: a task sending to itself with a
// timeout fails rather than hanging (the §6.1 deadlock shape, bounded by
// the communication-failure options of §6.2.1).
func TestSelfRPCTimesOutCleanly(t *testing.T) {
	s := NewSpace(0, nil)
	svc, _ := s.AllocatePort()
	// Nobody serves svc; RPC to self must time out.
	_, err := s.RPC(&Message{ID: 1, RemotePort: svc}, time.Second, 30*time.Millisecond)
	if err != ErrRcvTimedOut {
		t.Fatalf("self rpc: %v", err)
	}
}

// TestNotifyPortCannotBeDisabledAccidentally: death notifications still
// arrive after heavy port churn.
func TestNotificationsSurviveChurn(t *testing.T) {
	holder := NewSpace(0, nil)
	for i := 0; i < 50; i++ {
		n, _ := holder.AllocatePort()
		holder.DeallocatePort(n)
	}
	other := NewSpace(0, nil)
	n, _ := other.AllocatePort()
	p, _ := other.Resolve(n)
	holder.InsertRight(p, SendRight)
	other.DeallocatePort(n)
	m, err := holder.Receive(holder.NotifyPort(), ReceiveOptions{Timeout: time.Second})
	if err != nil || m.ID != MsgIDPortDeleted {
		t.Fatalf("notification after churn: %v %+v", err, m)
	}
}

// TestRPCReplyPortReuse: consecutive RPCs through one space reuse the
// cached reply port instead of allocating a fresh one per call.
func TestRPCReplyPortReuse(t *testing.T) {
	server := NewSpace(0, nil)
	client := NewSpace(0, nil)
	defer server.Destroy()
	defer client.Destroy()
	svc, _ := server.AllocatePort()
	name, _ := server.CopySendRight(client, svc)
	seen := make(chan Name, 8)
	go func() {
		for {
			m, err := server.Receive(svc, ReceiveOptions{})
			if err != nil {
				return
			}
			seen <- m.RemotePort // the name the reply right landed under
			_ = server.Send(&Message{ID: m.ID + 1, RemotePort: m.RemotePort}, SendOptions{Force: true})
			_ = server.DeallocatePort(m.RemotePort)
		}
	}()
	var replies [4]Name
	for i := range replies {
		r, err := client.RPC(&Message{ID: 1, RemotePort: name}, time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = r.LocalPort // the port the reply arrived on
		<-seen
	}
	for i := 1; i < len(replies); i++ {
		if replies[i] != replies[0] {
			t.Fatalf("reply port not reused: %v", replies)
		}
	}
}

// TestRPCTimeoutRetiresReplyPort: a timed-out RPC must not recycle its
// reply port — a late reply would otherwise be handed to the next call.
func TestRPCTimeoutRetiresReplyPort(t *testing.T) {
	server := NewSpace(0, nil)
	client := NewSpace(0, nil)
	defer server.Destroy()
	defer client.Destroy()
	svc, _ := server.AllocatePort()
	name, _ := server.CopySendRight(client, svc)
	release := make(chan struct{})
	go func() {
		for {
			m, err := server.Receive(svc, ReceiveOptions{})
			if err != nil {
				return
			}
			go func(m *Message) {
				if m.ID == 1 {
					<-release // delay the first reply past the timeout
				}
				_ = server.Send(&Message{ID: m.ID + 100, RemotePort: m.RemotePort}, SendOptions{Force: true})
				_ = server.DeallocatePort(m.RemotePort)
			}(m)
		}
	}()
	if _, err := client.RPC(&Message{ID: 1, RemotePort: name}, time.Second, 30*time.Millisecond); err != ErrRcvTimedOut {
		t.Fatalf("first call: %v", err)
	}
	close(release) // late reply fires at a retired port
	for i := 0; i < 8; i++ {
		r, err := client.RPC(&Message{ID: 2, RemotePort: name}, time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != 102 {
			t.Fatalf("stale reply leaked into a later call: got ID %d", r.ID)
		}
	}
}
