package ipc

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
)

func newTestSpace() *Space {
	return NewSpace(0, nil)
}

func TestAllocateDeallocate(t *testing.T) {
	s := newTestSpace()
	n, err := s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("allocated name 0")
	}
	st, err := s.Status(n)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasReceive || st.NumMsgs != 0 || st.Backlog != DefaultBacklog || st.Dead {
		t.Fatalf("status %+v", st)
	}
	if err := s.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Status(n); err != ErrInvalidPort {
		t.Fatalf("status after dealloc: %v", err)
	}
	if err := s.DeallocatePort(n); err != ErrInvalidPort {
		t.Fatalf("double dealloc: %v", err)
	}
}

func TestSendReceiveInline(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	msg := &Message{ID: 42, RemotePort: n, Sections: []Section{InlineBytes([]byte("hello"))}}
	if err := s.Send(msg, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Receive(n, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || string(got.InlineData()) != "hello" {
		t.Fatalf("got %+v", got)
	}
	if got.LocalPort != n {
		t.Fatalf("LocalPort %d, want arrival port %d", got.LocalPort, n)
	}
	if got.RemotePort != 0 {
		t.Fatalf("RemotePort %d, want 0 (no reply port)", got.RemotePort)
	}
}

func TestSendInvalidPort(t *testing.T) {
	s := newTestSpace()
	err := s.Send(&Message{RemotePort: 999}, SendOptions{})
	if err != ErrInvalidPort {
		t.Fatalf("got %v", err)
	}
}

func TestReceiveTimeoutAndNonblock(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	if _, err := s.Receive(n, ReceiveOptions{NonBlocking: true}); err != ErrWouldBlock {
		t.Fatalf("nonblocking empty receive: %v", err)
	}
	start := time.Now()
	_, err := s.Receive(n, ReceiveOptions{Timeout: 30 * time.Millisecond})
	if err != ErrRcvTimedOut {
		t.Fatalf("timed receive: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

func TestBacklogBlocksAndSetBacklog(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	if err := s.SetBacklog(n, 2); err != nil {
		t.Fatal(err)
	}
	send := func() error {
		return s.Send(&Message{RemotePort: n}, SendOptions{NonBlocking: true})
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); err != ErrWouldBlock {
		t.Fatalf("third nonblocking send: %v", err)
	}
	// Timed send also fails while full.
	if err := s.Send(&Message{RemotePort: n}, SendOptions{Timeout: 20 * time.Millisecond}); err != ErrSendTimedOut {
		t.Fatalf("timed send: %v", err)
	}
	// Raising the backlog lets a blocked sender proceed.
	done := make(chan error, 1)
	go func() { done <- s.Send(&Message{RemotePort: n}, SendOptions{}) }()
	time.Sleep(10 * time.Millisecond)
	if err := s.SetBacklog(n, 3); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked sender after backlog raise: %v", err)
	}
	// Forced sends ignore the backlog.
	if err := s.Send(&Message{RemotePort: n}, SendOptions{Force: true}); err != nil {
		t.Fatalf("forced send: %v", err)
	}
	st, _ := s.Status(n)
	if st.NumMsgs != 4 {
		t.Fatalf("queued %d, want 4", st.NumMsgs)
	}
}

func TestSendUnblocksOnReceive(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	s.SetBacklog(n, 1)
	if err := s.Send(&Message{ID: 1, RemotePort: n}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Send(&Message{ID: 2, RemotePort: n}, SendOptions{}) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Receive(n, ReceiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second send: %v", err)
	}
}

func TestReplyPortAndRPC(t *testing.T) {
	server := newTestSpace()
	client := newTestSpace()
	svc, _ := server.AllocatePort()
	// Hand the client a send right (kernel-style insertion).
	p, _ := server.Resolve(svc)
	clientName, err := client.InsertRight(p, SendRight)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		req, err := server.Receive(svc, ReceiveOptions{})
		if err != nil {
			return
		}
		// Echo the payload back on the reply port.
		reply := &Message{
			ID:         req.ID + 1,
			RemotePort: req.RemotePort,
			Sections:   []Section{InlineBytes(append([]byte("re: "), req.InlineData()...))},
		}
		server.Send(reply, SendOptions{})
	}()

	resp, err := client.RPC(&Message{
		ID:         7,
		RemotePort: clientName,
		Sections:   []Section{InlineBytes([]byte("ping"))},
	}, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 8 || string(resp.InlineData()) != "re: ping" {
		t.Fatalf("rpc response %+v", resp)
	}
}

func TestSendRightTransferInBody(t *testing.T) {
	a := newTestSpace()
	b := newTestSpace()
	// a will transfer a send right for `carried` to b over b's channel
	// port.
	carried, _ := a.AllocatePort()
	bChan, _ := b.AllocatePort()
	bp, _ := b.Resolve(bChan)
	aName, _ := a.InsertRight(bp, SendRight)

	if err := a.Send(&Message{
		ID:         1,
		RemotePort: aName,
		Sections:   []Section{CarryRight(carried, SendRight)},
	}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive(bChan, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sec := got.Sections[0]
	if sec.Kind != PortRightSection || sec.PortName == 0 {
		t.Fatalf("section %+v", sec)
	}
	// b can now send to the carried port; a receives.
	if err := b.Send(&Message{ID: 2, RemotePort: sec.PortName}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	m2, err := a.Receive(carried, ReceiveOptions{})
	if err != nil || m2.ID != 2 {
		t.Fatalf("receive on carried port: %v %+v", err, m2)
	}
	// Sender kept its right (copy-send semantics).
	if _, err := a.Status(carried); err != nil {
		t.Fatalf("sender lost right: %v", err)
	}
}

func TestReceiveRightTransferMovesQueue(t *testing.T) {
	a := NewSpace(0, nil)
	b := NewSpace(1, nil)
	moved, _ := a.AllocatePort()
	// Queue a message before the move; it must survive.
	if err := a.Send(&Message{ID: 9, RemotePort: moved}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	bChan, _ := b.AllocatePort()
	bp, _ := b.Resolve(bChan)
	aName, _ := a.InsertRight(bp, SendRight)
	if err := a.Send(&Message{
		RemotePort: aName,
		Sections:   []Section{CarryRight(moved, ReceiveRight)},
	}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive(bChan, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	name := got.Sections[0].PortName
	st, err := b.Status(name)
	if err != nil || !st.HasReceive {
		t.Fatalf("b status %+v err %v", st, err)
	}
	m, err := b.Receive(name, ReceiveOptions{})
	if err != nil || m.ID != 9 {
		t.Fatalf("queued message after move: %v %+v", err, m)
	}
	// a no longer holds the receive right.
	if st, err := a.Status(moved); err == nil && st.HasReceive {
		t.Fatal("a still holds receive right")
	}
}

func TestPortDeathNotification(t *testing.T) {
	holder := newTestSpace()
	owner := newTestSpace()
	n, _ := owner.AllocatePort()
	p, _ := owner.Resolve(n)
	hn, _ := holder.InsertRight(p, SendRight)

	if err := owner.DeallocatePort(n); err != nil {
		t.Fatal(err)
	}
	// holder's notify port gets a MsgIDPortDeleted naming hn.
	m, err := holder.Receive(holder.NotifyPort(), ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != MsgIDPortDeleted {
		t.Fatalf("message ID %d", m.ID)
	}
	if dead := DecodeName(m.InlineData()); dead != hn {
		t.Fatalf("dead name %d, want %d", dead, hn)
	}
	if m.LocalPort != holder.NotifyPort() {
		t.Fatalf("arrived on %d, want notify %d", m.LocalPort, holder.NotifyPort())
	}
	// The right survives as a dead name: the name stays reserved (it
	// can never alias a fresh port), resolves to ErrDeadName, and is
	// only freed by an explicit deallocate.
	st, err := holder.Status(hn)
	if err != nil || !st.Dead {
		t.Fatalf("dead name status: %+v, %v", st, err)
	}
	if _, err := holder.Resolve(hn); err != ErrDeadName {
		t.Fatalf("resolve dead name: %v, want ErrDeadName", err)
	}
	if err := holder.DeallocatePort(hn); err != nil {
		t.Fatalf("deallocate dead name: %v", err)
	}
	if _, err := holder.Status(hn); err != ErrInvalidPort {
		t.Fatalf("dead name still present after deallocate: %v", err)
	}
	// Sending to a dead port (raw) fails.
	if err := RawSend(nil, 0, p, &Message{}, SendOptions{}); err != ErrPortDied {
		t.Fatalf("send to dead port: %v", err)
	}
}

func TestBlockedReceiverWokenByDeath(t *testing.T) {
	owner := newTestSpace()
	n, _ := owner.AllocatePort()
	p, _ := owner.Resolve(n)
	done := make(chan error, 1)
	go func() {
		_, err := RawReceive(p, ReceiveOptions{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	owner.DeallocatePort(n)
	select {
	case err := <-done:
		if err != ErrPortDied {
			t.Fatalf("blocked receive: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver not woken by port death")
	}
}

func TestRawPortsAndKernelFlow(t *testing.T) {
	// Kernel creates a raw port, hands a task a send right, and
	// receives what the task sends — the vm_allocate_with_pager shape.
	task := newTestSpace()
	kp := NewRawPort(0)
	name, err := task.InsertRight(kp, SendRight)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Send(&Message{ID: 3, RemotePort: name, Sections: []Section{InlineBytes([]byte{1})}}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := RawReceive(kp, ReceiveOptions{Timeout: time.Second})
	if err != nil || m.ID != 3 {
		t.Fatalf("raw receive: %v %+v", err, m)
	}
	// Kernel sends the task a right to another raw port in a body.
	req := NewRawPort(0)
	if err := RawSend(nil, 0, kp, &Message{ID: 4}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	_ = req
	taskPort, _ := task.Resolve(name)
	if taskPort != kp {
		t.Fatal("resolve mismatch")
	}
}

func TestRawRightCarriedToSpace(t *testing.T) {
	task := newTestSpace()
	dest, _ := task.AllocatePort()
	dp, _ := task.Resolve(dest)
	req := NewRawPort(0)
	err := RawSend(nil, 0, dp, &Message{
		ID:       10,
		Sections: []Section{CarryRawRight(req, SendRight)},
	}, SendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := task.Receive(dest, ReceiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Sections[0].PortName
	if n == 0 {
		t.Fatal("right not installed")
	}
	// Task can now send to the kernel's raw port.
	if err := task.Send(&Message{ID: 11, RemotePort: n}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if m, err := RawReceive(req, ReceiveOptions{Timeout: time.Second}); err != nil || m.ID != 11 {
		t.Fatalf("kernel receive: %v", err)
	}
}

func TestTopologyChargedOnSend(t *testing.T) {
	clk := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clk)
	a := NewSpace(0, topo)
	b := NewSpace(1, topo)
	bn, _ := b.AllocatePort()
	bp, _ := b.Resolve(bn)
	an, _ := a.InsertRight(bp, SendRight)
	if err := a.Send(&Message{RemotePort: an, Sections: []Section{InlineBytes(make([]byte, 1000))}}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	st := topo.Stats()
	if st.RemoteMessages != 1 || st.RemoteBytes < 1000 {
		t.Fatalf("net stats %+v", st)
	}
	if clk.Now() < 200*time.Microsecond {
		t.Fatalf("clock %v, want >= NORMA message latency", clk.Now())
	}
}

func TestSpaceDestroy(t *testing.T) {
	holder := newTestSpace()
	victim := newTestSpace()
	n, _ := victim.AllocatePort()
	p, _ := victim.Resolve(n)
	holder.InsertRight(p, SendRight)
	victim.Destroy()
	// holder is notified of the port death.
	m, err := holder.Receive(holder.NotifyPort(), ReceiveOptions{Timeout: time.Second})
	if err != nil || m.ID != MsgIDPortDeleted {
		t.Fatalf("notification: %v %+v", err, m)
	}
	if _, err := victim.AllocatePort(); err != ErrSpaceDead {
		t.Fatalf("allocate on dead space: %v", err)
	}
	if err := victim.Send(&Message{RemotePort: n}, SendOptions{}); err != ErrSpaceDead {
		t.Fatalf("send on dead space: %v", err)
	}
}

func TestWireSize(t *testing.T) {
	m := &Message{Sections: []Section{
		InlineBytes(make([]byte, 100)),
		{Kind: PortRightSection},
		{Kind: OutOfLineSection},
	}}
	want := messageHeaderBytes + 100 + 8 + 32
	if got := m.wireSize(); got != want {
		t.Fatalf("wireSize %d, want %d", got, want)
	}
}

func TestConcurrentSendersReceivers(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	s.SetBacklog(n, 4)
	const msgs = 200
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < msgs/4; j++ {
				if err := s.Send(&Message{ID: 1, RemotePort: n}, SendOptions{}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	got := make(chan struct{}, msgs)
	for i := 0; i < 2; i++ {
		go func() {
			for {
				if _, err := s.Receive(n, ReceiveOptions{Timeout: time.Second}); err != nil {
					return
				}
				got <- struct{}{}
			}
		}()
	}
	for i := 0; i < msgs; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d messages delivered", i, msgs)
		}
	}
	wg.Wait()
}

func TestNameEncodeDecodeRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		return DecodeName(EncodeName(Name(n))) == Name(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if DecodeName([]byte{1, 2}) != 0 {
		t.Fatal("short payload must decode to 0")
	}
}

func TestMessagesOrderedFIFO(t *testing.T) {
	s := newTestSpace()
	n, _ := s.AllocatePort()
	s.SetBacklog(n, 64)
	for i := 0; i < 20; i++ {
		if err := s.Send(&Message{ID: MsgID(i), RemotePort: n}, SendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		m, err := s.Receive(n, ReceiveOptions{})
		if err != nil || m.ID != MsgID(i) {
			t.Fatalf("position %d: %v %+v", i, err, m)
		}
	}
}
