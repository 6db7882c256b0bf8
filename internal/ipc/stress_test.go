package ipc

import (
	"sync"
	"testing"
	"time"
)

// TestSpaceStressConcurrentOps hammers one Space from 16 goroutines doing
// AllocatePort / InsertRight / Send / Receive / DeallocatePort
// concurrently, pinning the sharded namespace's correctness. Run under
// -race this exercises every lock pairing in the space: name shards,
// the port reverse index, and the per-port handoff path.
func TestSpaceStressConcurrentOps(t *testing.T) {
	s := NewSpace(0, nil)
	other := NewSpace(0, nil)
	const (
		workers = 16
		rounds  = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n, err := s.AllocatePort()
				if err != nil {
					t.Errorf("worker %d: allocate: %v", w, err)
					return
				}
				// Cross-space right insertion: the other space gains and
				// drops a send right while we churn the port.
				p, err := s.Resolve(n)
				if err != nil {
					t.Errorf("worker %d: resolve: %v", w, err)
					return
				}
				on, err := other.InsertRight(p, SendRight)
				if err != nil {
					t.Errorf("worker %d: insert: %v", w, err)
					return
				}
				// Merging rights into the existing name must return the
				// same name, not allocate a second one.
				if on2, err := other.InsertRight(p, SendRight); err != nil || on2 != on {
					t.Errorf("worker %d: merge insert got (%d, %v), want (%d, nil)", w, on2, err, on)
					return
				}
				// Status and SetBacklog race rights transfers in other
				// workers; they must read entry rights under the lock.
				if _, err := other.Status(on); err != nil {
					t.Errorf("worker %d: status: %v", w, err)
					return
				}
				if err := s.SetBacklog(n, 32); err != nil {
					t.Errorf("worker %d: set backlog: %v", w, err)
					return
				}
				if err := s.Send(&Message{ID: MsgID(i), RemotePort: n}, SendOptions{}); err != nil {
					t.Errorf("worker %d: send: %v", w, err)
					return
				}
				m, err := s.Receive(n, ReceiveOptions{Timeout: 5 * time.Second})
				if err != nil {
					t.Errorf("worker %d: receive: %v", w, err)
					return
				}
				if m.ID != MsgID(i) {
					t.Errorf("worker %d: got ID %d, want %d", w, m.ID, i)
					return
				}
				if i%3 == 0 {
					_ = other.DeallocatePort(on)
				}
				if err := s.DeallocatePort(n); err != nil {
					t.Errorf("worker %d: deallocate: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain the port-death notifications the churn produced; every one
	// must decode to a valid (non-zero) name.
	for {
		m, err := other.Receive(other.NotifyPort(), ReceiveOptions{NonBlocking: true})
		if err != nil {
			break
		}
		if m.ID == MsgIDPortDeleted && DecodeName(m.InlineData()) == 0 {
			t.Fatal("port-death notification with zero name")
		}
	}
}

// TestStressSharedPortManySendersReceivers drives one port from many
// sending and receiving goroutines at once, checking no message is lost
// or duplicated across the handoff and queue paths.
func TestStressSharedPortManySendersReceivers(t *testing.T) {
	s := NewSpace(0, nil)
	n, _ := s.AllocatePort()
	_ = s.SetBacklog(n, 8)
	const (
		senders = 8
		perSend = 250
		total   = senders * perSend
	)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				id := MsgID(w*perSend + i)
				if err := s.Send(&Message{ID: id, RemotePort: n}, SendOptions{}); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	seen := make([]bool, total)
	var seenMu sync.Mutex
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				m, err := s.Receive(n, ReceiveOptions{Timeout: 2 * time.Second})
				if err != nil {
					return
				}
				seenMu.Lock()
				if seen[m.ID] {
					t.Errorf("message %d delivered twice", m.ID)
				}
				seen[m.ID] = true
				seenMu.Unlock()
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	for id, ok := range seen {
		if !ok {
			t.Fatalf("message %d never delivered", id)
		}
	}
}

// TestStressDestroyWhileActive destroys a space while other goroutines
// are mid-operation; everything must settle to ErrSpaceDead or clean
// success, never a hang or panic.
func TestStressDestroyWhileActive(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewSpace(0, nil)
		n, _ := s.AllocatePort()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = s.AllocatePort()
					_ = s.Send(&Message{RemotePort: n}, SendOptions{NonBlocking: true})
					_, _ = s.Receive(n, ReceiveOptions{NonBlocking: true})
				}
			}()
		}
		time.Sleep(time.Millisecond)
		s.Destroy()
		close(stop)
		wg.Wait()
		if _, err := s.AllocatePort(); err != ErrSpaceDead {
			t.Fatalf("allocate on destroyed space: %v", err)
		}
	}
}
