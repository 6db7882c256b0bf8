package ipc

import (
	"testing"
	"time"
)

// TestPortSetBasicReceive moves two ports into a set and receives
// their messages through it, checking LocalPort names the member the
// message arrived on.
func TestPortSetBasicReceive(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, err := s.AllocatePortSet()
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.AllocatePort()
	p2, _ := s.AllocatePort()
	if err := s.MoveToPortSet(set, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveToPortSet(set, p2); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&Message{ID: 1, RemotePort: p1}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&Message{ID: 2, RemotePort: p2}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	got := map[Name]MsgID{}
	for i := 0; i < 2; i++ {
		m, err := s.Receive(set, ReceiveOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		got[m.LocalPort] = m.ID
	}
	if got[p1] != 1 || got[p2] != 2 {
		t.Fatalf("wrong arrival rewriting: %v", got)
	}
}

// TestPortSetDirectReceiveFails locks in ErrInSet: a member's messages
// arrive only through the set.
func TestPortSetDirectReceiveFails(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	if err := s.MoveToPortSet(set, p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receive(p, ReceiveOptions{NonBlocking: true}); err != ErrInSet {
		t.Fatalf("direct receive on member: %v, want ErrInSet", err)
	}
	// A receiver parked on the port BEFORE the move is failed with
	// ErrInSet too.
	if err := s.RemoveFromPortSet(set, p); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Receive(p, ReceiveOptions{Timeout: 5 * time.Second})
		errc <- err
	}()
	// Wait until the receiver has parked.
	deadline := time.Now().Add(2 * time.Second)
	for {
		pp, _ := s.Resolve(p)
		pp.mu.Lock()
		parked := len(pp.waiters) > 0
		pp.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.MoveToPortSet(set, p); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != ErrInSet {
		t.Fatalf("parked receiver got %v, want ErrInSet", err)
	}
}

// TestPortSetBlockedReceiverWakes parks a set receiver and proves a
// send to any member wakes it.
func TestPortSetBlockedReceiverWakes(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p1, _ := s.AllocatePort()
	p2, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p1)
	_ = s.MoveToPortSet(set, p2)
	done := make(chan *Message, 1)
	go func() {
		m, _ := s.Receive(set, ReceiveOptions{Timeout: 5 * time.Second})
		done <- m
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Send(&Message{ID: 7, RemotePort: p2}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m == nil || m.ID != 7 || m.LocalPort != p2 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("set receiver not woken by member send")
	}
}

// TestPortSetFairRotation floods every member and checks the drain
// interleaves round-robin instead of finishing one port first.
func TestPortSetFairRotation(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	const members, per = 4, 8
	names := make([]Name, members)
	for i := range names {
		n, _ := s.AllocatePort()
		_ = s.SetBacklog(n, per)
		names[i] = n
		if err := s.MoveToPortSet(set, n); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < per; j++ {
		for _, n := range names {
			if err := s.Send(&Message{ID: MsgID(j), RemotePort: n}, SendOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Record the drain position of each member's last message; fair
	// rotation finishes all members within one lap of each other.
	lastAt := map[Name]int{}
	for i := 0; i < members*per; i++ {
		m, err := s.Receive(set, ReceiveOptions{NonBlocking: true})
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		lastAt[m.LocalPort] = i
	}
	mean := 0
	for _, at := range lastAt {
		mean += at
	}
	mean /= members
	for n, at := range lastAt {
		if at > 2*mean {
			t.Fatalf("member %d drained at %d, mean %d: starved by unfair rotation", n, at, mean)
		}
	}
}

// TestPortSetBackpressure proves a member's backlog still gates its
// senders: a set receive draining the member releases them.
func TestPortSetBackpressure(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	_ = s.SetBacklog(p, 1)
	_ = s.MoveToPortSet(set, p)
	if err := s.Send(&Message{ID: 1, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&Message{ID: 2, RemotePort: p}, SendOptions{NonBlocking: true}); err != ErrWouldBlock {
		t.Fatalf("full member backlog: %v, want ErrWouldBlock", err)
	}
	unblocked := make(chan error, 1)
	go func() {
		unblocked <- s.Send(&Message{ID: 2, RemotePort: p}, SendOptions{Timeout: 5 * time.Second})
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Receive(set, ReceiveOptions{Timeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := <-unblocked; err != nil {
		t.Fatalf("sender not released by set drain: %v", err)
	}
}

// TestPortSetMemberDeathLeavesSet kills a member and checks the set
// keeps serving the others.
func TestPortSetMemberDeathLeavesSet(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p1, _ := s.AllocatePort()
	p2, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p1)
	_ = s.MoveToPortSet(set, p2)
	if err := s.DeallocatePort(p1); err != nil {
		t.Fatal(err)
	}
	members, err := s.PortSetMembers(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != p2 {
		t.Fatalf("members after death: %v", members)
	}
	if err := s.Send(&Message{ID: 9, RemotePort: p2}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(set, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 9 {
		t.Fatalf("set dead after member death: %v %v", m, err)
	}
}

// TestPortSetLastMemberDeathFailsReceiver: a receiver blocked on a set
// whose last member dies gets ErrNoEnabledPorts, the multiplexed
// loop's termination signal.
func TestPortSetLastMemberDeathFailsReceiver(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Receive(set, ReceiveOptions{Timeout: 5 * time.Second})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.DeallocatePort(p); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != ErrNoEnabledPorts {
			t.Fatalf("got %v, want ErrNoEnabledPorts", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver not failed when set emptied")
	}
	// And an immediate receive on the (still existing) empty set fails
	// the same way.
	if _, err := s.Receive(set, ReceiveOptions{}); err != ErrNoEnabledPorts {
		t.Fatalf("empty set receive: %v", err)
	}
}

// TestPortSetDestroyOrphansMembers deallocates the set and checks
// members fall back to direct receive with their queues intact.
func TestPortSetDestroyOrphansMembers(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p)
	if err := s.Send(&Message{ID: 5, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Receive(set, ReceiveOptions{Timeout: 5 * time.Second})
		errc <- err
	}()
	// The parked receiver must fail with ErrPortDied... but the queued
	// message may win the race and be received first. Either way the
	// member keeps (or already delivered) its message.
	time.Sleep(10 * time.Millisecond)
	drainFirst := false
	select {
	case err := <-errc:
		// The receiver took the queued message before the destroy.
		if err != nil {
			t.Fatalf("pre-destroy receive: %v", err)
		}
		drainFirst = true
	default:
	}
	if err := s.DeallocatePort(set); err != nil {
		t.Fatal(err)
	}
	if !drainFirst {
		if err := <-errc; err != nil && err != ErrPortDied {
			t.Fatalf("blocked receiver after set destroy: %v", err)
		}
	}
	// The member is a direct-receive port again.
	if !drainFirst {
		// Its message may have been taken by the receiver before the
		// destroy; tolerate both, but direct receive must not error
		// with ErrInSet.
		_, err := s.Receive(p, ReceiveOptions{NonBlocking: true})
		if err == ErrInSet {
			t.Fatal("member still claims set membership after set destroy")
		}
	}
	if err := s.Send(&Message{ID: 6, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(p, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 6 {
		t.Fatalf("orphaned member direct receive: %v %v", m, err)
	}
	// The set name is gone.
	if _, err := s.Receive(set, ReceiveOptions{NonBlocking: true}); err != ErrInvalidPort {
		t.Fatalf("receive on deallocated set: %v", err)
	}
}

// TestPortSetMoveBetweenSets checks move semantics: a receive right
// belongs to at most one set, and MoveToPortSet detaches it from the
// old set.
func TestPortSetMoveBetweenSets(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	setA, _ := s.AllocatePortSet()
	setB, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	if err := s.MoveToPortSet(setA, p); err != nil {
		t.Fatal(err)
	}
	// Re-moving into the same set is a no-op.
	if err := s.MoveToPortSet(setA, p); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveToPortSet(setB, p); err != nil {
		t.Fatal(err)
	}
	if ms, _ := s.PortSetMembers(setA); len(ms) != 0 {
		t.Fatalf("setA still has %v", ms)
	}
	if ms, _ := s.PortSetMembers(setB); len(ms) != 1 || ms[0] != p {
		t.Fatalf("setB has %v", ms)
	}
	if err := s.Send(&Message{ID: 3, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receive(setA, ReceiveOptions{NonBlocking: true}); err != ErrNoEnabledPorts {
		t.Fatalf("old set still receives: %v", err)
	}
	if m, err := s.Receive(setB, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 3 {
		t.Fatalf("new set receive: %v %v", m, err)
	}
}

// TestPortSetQueuedMessagesFollowMembership: messages queued before a
// move become receivable through the set, and messages queued while in
// the set stay receivable after removal.
func TestPortSetQueuedMessagesFollowMembership(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	if err := s.Send(&Message{ID: 1, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	_ = s.MoveToPortSet(set, p)
	if m, err := s.Receive(set, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 1 {
		t.Fatalf("pre-move message through set: %v %v", m, err)
	}
	if err := s.Send(&Message{ID: 2, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveFromPortSet(set, p); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(p, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 2 {
		t.Fatalf("post-removal message direct: %v %v", m, err)
	}
}

// TestPortSetReceiveTimeout checks a timed set receive returns
// ErrRcvTimedOut without losing the waiter slot bookkeeping.
func TestPortSetReceiveTimeout(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p)
	start := time.Now()
	if _, err := s.Receive(set, ReceiveOptions{Timeout: 50 * time.Millisecond}); err != ErrRcvTimedOut {
		t.Fatalf("got %v, want ErrRcvTimedOut", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout overshot")
	}
	// The set still works after the timeout.
	if err := s.Send(&Message{ID: 4, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(set, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 4 {
		t.Fatalf("post-timeout receive: %v %v", m, err)
	}
}

// TestPortSetNoSendersInteraction: a member's no-senders accounting is
// untouched by membership — the notification fires on the notify port
// while the port sits in a set.
func TestPortSetNoSendersInteraction(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	client := NewSpace(0, nil)
	defer client.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p)
	if err := s.RequestNoSenders(p); err != nil {
		t.Fatal(err)
	}
	cn, err := s.CopySendRight(client, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DeallocatePort(cn); err != nil {
		t.Fatal(err)
	}
	m, err := s.Receive(s.NotifyPort(), ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != MsgIDNoSenders {
		t.Fatalf("notification ID %d", m.ID)
	}
	if n, _ := DecodeNoSenders(m.InlineData()); n != p {
		t.Fatalf("notification for %d, want %d", n, p)
	}
}

// TestPortSetCannotCaptureMigratingRight is the white-box regression
// for the extraction/move race: a mover that resolved the member's
// name BEFORE extractRights removed it must not be able to capture the
// in-transit port (its receiver is already gone) — addMember re-checks
// the receiver under the port lock.
func TestPortSetCannotCaptureMigratingRight(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	n, _ := s.AllocatePort()
	p, err := s.Resolve(n)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the race window: the extraction cleared the receiver but
	// the mover still holds the resolved port.
	p.setReceiver(nil)
	ps, err := s.resolveSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.addMember(n, p, nil); err != ErrNotReceiver {
		t.Fatalf("captured a migrating receive right: %v, want ErrNotReceiver", err)
	}
	if ms, _ := s.PortSetMembers(set); len(ms) != 0 {
		t.Fatalf("set holds %v", ms)
	}
}

// TestPortSetReceiveRightMigrationLeavesSet sends a member's receive
// right away in a message: the right must leave the set (the set is
// the old receive point's property), and the receiving space gets a
// working direct-receive port with the queue intact.
func TestPortSetReceiveRightMigrationLeavesSet(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	other := NewSpace(0, nil)
	defer other.Destroy()
	set, _ := s.AllocatePortSet()
	p, _ := s.AllocatePort()
	carrier, _ := other.AllocatePort()
	cs, _ := other.CopySendRight(s, carrier)
	_ = s.MoveToPortSet(set, p)
	// A message rides the queue across the migration.
	if err := s.Send(&Message{ID: 11, RemotePort: p}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&Message{
		ID:         1,
		RemotePort: cs,
		Sections:   []Section{CarryRight(p, ReceiveRight)},
	}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if ms, _ := s.PortSetMembers(set); len(ms) != 0 {
		t.Fatalf("migrated right still a member: %v", ms)
	}
	m, err := other.Receive(carrier, ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	moved := m.Sections[0].PortName
	if moved == 0 {
		t.Fatal("receive right lost in transit")
	}
	if got, err := other.Receive(moved, ReceiveOptions{Timeout: time.Second}); err != nil || got.ID != 11 {
		t.Fatalf("queue did not travel: %v %v", got, err)
	}
}
