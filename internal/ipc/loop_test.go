package ipc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loopPorts allocates n ports on s and a client space holding a send
// right to each.
func loopPorts(t *testing.T, s *Space, n int) (client *Space, ports, sends []Name) {
	t.Helper()
	client = NewSpace(0, nil)
	t.Cleanup(client.Destroy)
	for i := 0; i < n; i++ {
		p, err := s.AllocatePort()
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.CopySendRight(client, p)
		if err != nil {
			t.Fatal(err)
		}
		ports, sends = append(ports, p), append(sends, c)
	}
	return client, ports, sends
}

// TestLoopReceiversShareOneSet: several receivers drain one set whose
// members each carry their own handler. Every message reaches the
// handler of the port it was sent to, exactly once; all receivers serve
// at once (a rendezvous of as many handlers as receivers completes only
// if they do); and the loop releases every message its handler did not
// keep.
func TestLoopReceiversShareOneSet(t *testing.T) {
	const receivers, ports, perPort = 4, 3, 40
	s := NewSpace(0, nil)
	defer s.Destroy()
	client, names, sends := loopPorts(t, s, ports)
	l := NewLoop(s)

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := 0
	got := make([]map[MsgID]int, ports)
	var kept []*Message
	var released []*Message
	for i := range names {
		i := i
		got[i] = map[MsgID]int{}
		if err := l.Serve(names[i], func(m *Message) bool {
			if m.LocalPort != names[i] {
				t.Errorf("port %d's handler got a message for %d", names[i], m.LocalPort)
			}
			mu.Lock()
			defer mu.Unlock()
			// The first messages wait until one per receiver is in a
			// handler at once.
			if arrived < receivers {
				arrived++
				cond.Broadcast()
				for arrived < receivers {
					cond.Wait()
				}
			}
			got[i][m.ID]++
			if m.ID%2 == 0 {
				kept = append(kept, m)
				return true
			}
			released = append(released, m)
			return false
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		l.Run(receivers)
		close(done)
	}()
	for id := 0; id < perPort; id++ {
		for i := range sends {
			// Literals, not pooled messages: a released one then stays
			// in the pool, where the test can see it.
			m := &Message{ID: MsgID(id), RemotePort: sends[i]}
			if err := client.Send(m, SendOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(kept) + len(released)
		mu.Unlock()
		if n == ports*perPort {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("served %d of %d messages", n, ports*perPort)
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	<-done
	for i := range got {
		for id := 0; id < perPort; id++ {
			if n := got[i][MsgID(id)]; n != 1 {
				t.Fatalf("port %d message %d served %d times", i, id, n)
			}
		}
	}
	for _, m := range released {
		if !m.free {
			t.Fatal("the loop kept a message its handler did not keep")
		}
	}
	for _, m := range kept {
		if m.free {
			t.Fatal("the loop released a message its handler kept")
		}
		m.Release()
	}
}

// TestLoopSelfStop: a handler that stops its own loop does not wait for
// itself, on one receiver or on several; the other receivers are joined
// and Run returns.
func TestLoopSelfStop(t *testing.T) {
	for _, receivers := range []int{1, 3} {
		s := NewSpace(0, nil)
		client, names, sends := loopPorts(t, s, 1)
		l := NewLoop(s)
		var served atomic.Int32
		if err := l.Serve(names[0], func(*Message) bool {
			served.Add(1)
			l.Stop()
			return false
		}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			l.Run(receivers)
			close(done)
		}()
		if err := client.Send(&Message{ID: 1, RemotePort: sends[0]}, SendOptions{}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d receivers: a handler stopping its own loop deadlocked", receivers)
		}
		if n := served.Load(); n != 1 {
			t.Fatalf("%d receivers: served %d messages, want 1", receivers, n)
		}
		l.Stop()
		s.Destroy()
	}
}

// TestLoopStopJoins: Stop waits for the handler in flight, after which
// no receiver remains; a Stop before Run makes Run return at once; a
// member's queue survives the loop.
func TestLoopStopJoins(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	client, names, sends := loopPorts(t, s, 1)
	l := NewLoop(s)
	entered, release := make(chan struct{}), make(chan struct{})
	if err := l.Serve(names[0], func(*Message) bool {
		close(entered)
		<-release
		return false
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		l.Run(2)
		close(done)
	}()
	if err := client.Send(&Message{ID: 1, RemotePort: sends[0]}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	<-entered
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a handler was serving")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	<-done
	// The port left with the set: what arrives now queues on it.
	if err := client.Send(&Message{ID: 2, RemotePort: sends[0]}, SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(names[0], ReceiveOptions{NonBlocking: true}); err != nil || m.ID != 2 {
		t.Fatalf("direct receive after Stop: %v", err)
	}

	early := NewLoop(s)
	early.Stop()
	ran := make(chan struct{})
	go func() {
		early.Run(4)
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run after Stop did not return")
	}
}
