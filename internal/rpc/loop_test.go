package rpc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
)

// multiServer builds n rpc servers on ONE space, each echoing with a
// server-identifying offset, plus one client space holding send rights
// to all of them.
func multiServer(t *testing.T, n int) (space *ipc.Space, srvs []*Server, clients []*Client) {
	t.Helper()
	space = ipc.NewSpace(0, nil)
	clientSpace := ipc.NewSpace(0, nil)
	t.Cleanup(func() { space.Destroy(); clientSpace.Destroy() })
	for i := 0; i < n; i++ {
		srv, err := NewServer(space)
		if err != nil {
			t.Fatal(err)
		}
		off := uint64(i+1) * 1000
		srv.Handle(msgEcho, func(m *ipc.Message, d *Dec) (*Reply, error) {
			v := d.U64()
			if err := d.Err(); err != nil {
				return nil, err
			}
			r := NewReply()
			r.U64(v + off)
			return r, nil
		})
		svc, err := space.CopySendRight(clientSpace, srv.Port)
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		clients = append(clients, NewClient(clientSpace, svc, 10*time.Second))
	}
	return space, srvs, clients
}

// serveAll moves every other server's port into the first server's loop.
func serveAll(t *testing.T, srvs []*Server) {
	t.Helper()
	for _, s := range srvs[1:] {
		if err := srvs[0].Loop.Serve(s.Port, s.Serve); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoopMultiplexesServers serves three distinct service ports from
// ONE goroutine via one loop and proves calls to each port are answered
// by its own handler table.
func TestLoopMultiplexesServers(t *testing.T) {
	_, srvs, clients := multiServer(t, 3)
	serveAll(t, srvs)
	var loops atomic32
	done := make(chan struct{})
	go func() {
		loops.inc()
		srvs[0].Run()
		close(done)
	}()
	for i, c := range clients {
		for j := 0; j < 8; j++ {
			resp, err := c.Invoke(msgEcho, NewEnc().U64(uint64(j)))
			if err != nil {
				t.Fatalf("server %d call %d: %v", i, j, err)
			}
			if got, want := resp.Dec.U64(), uint64(j)+uint64(i+1)*1000; got != want {
				t.Fatalf("server %d: got %d, want %d (wrong handler table answered)", i, got, want)
			}
		}
	}
	if got := loops.load(); got != 1 {
		t.Fatalf("%d loops", got)
	}
	// Stopping every member ends the multiplexed loop.
	for _, s := range srvs {
		s.Stop()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the loop did not return after all members stopped")
	}
}

// TestLoopSingleReceiver pins the "one goroutine" claim: N concurrent
// clients against 3 multiplexed services are all served while the
// process runs exactly one additional serving goroutine — measured
// indirectly by the loop's one receiver being the only dispatcher
// (handlers record their goroutine; all requests must land on one).
func TestLoopSingleReceiver(t *testing.T) {
	space := ipc.NewSpace(0, nil)
	clientSpace := ipc.NewSpace(0, nil)
	defer space.Destroy()
	defer clientSpace.Destroy()
	var mu sync.Mutex
	goroutines := map[string]bool{}
	var srvs []*Server
	var clients []*Client
	for i := 0; i < 3; i++ {
		srv, err := NewServer(space)
		if err != nil {
			t.Fatal(err)
		}
		srv.Handle(msgEcho, func(m *ipc.Message, d *Dec) (*Reply, error) {
			buf := make([]byte, 64)
			id := string(buf[:runtime.Stack(buf, false)])
			mu.Lock()
			goroutines[id[:len("goroutine 12345")]] = true
			mu.Unlock()
			r := NewReply()
			r.U64(d.U64())
			return r, nil
		})
		svc, err := space.CopySendRight(clientSpace, srv.Port)
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
		clients = append(clients, NewClient(clientSpace, svc, 10*time.Second))
	}
	serveAll(t, srvs)
	go srvs[0].Run()
	defer func() {
		for _, s := range srvs {
			s.Stop()
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				if _, err := c.Invoke(msgEcho, NewEnc().U64(uint64(j))); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(goroutines) != 1 {
		t.Fatalf("handlers ran on %d goroutines, want 1", len(goroutines))
	}
}

// TestLoopPartialStop: one member stopping leaves the other services
// running on the shared loop.
func TestLoopPartialStop(t *testing.T) {
	_, srvs, clients := multiServer(t, 3)
	serveAll(t, srvs)
	done := make(chan struct{})
	go func() {
		srvs[0].Run()
		close(done)
	}()
	// Warm up each service before stopping one.
	for i, c := range clients {
		if _, err := c.Invoke(msgEcho, NewEnc().U64(0)); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}
	srvs[1].Stop()
	// A call to the stopped service fails fast (dead name), the others
	// keep answering.
	if _, err := clients[1].Call(msgEcho, NewEnc().U64(1)); err == nil {
		t.Fatal("call to stopped member succeeded")
	}
	for _, i := range []int{0, 2} {
		resp, err := clients[i].Invoke(msgEcho, NewEnc().U64(7))
		if err != nil {
			t.Fatalf("surviving server %d: %v", i, err)
		}
		if got := resp.Dec.U64(); got != 7+uint64(i+1)*1000 {
			t.Fatalf("server %d answered %d", i, got)
		}
	}
	srvs[0].Stop()
	srvs[2].Stop()
	<-done
}

// TestLoopRejectsForeignSpace: a loop serves only receive rights of its
// own space; a server of another space, which the loop's space can at
// most name with a send right, is refused.
func TestLoopRejectsForeignSpace(t *testing.T) {
	space, srvs, _ := multiServer(t, 1)
	other := ipc.NewSpace(0, nil)
	defer other.Destroy()
	foreign, err := NewServer(other)
	if err != nil {
		t.Fatal(err)
	}
	n, err := other.CopySendRight(space, foreign.Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := srvs[0].Loop.Serve(n, foreign.Serve); err == nil {
		t.Fatal("foreign-space server accepted")
	}
}

// atomic32 is a tiny counter (avoiding sync/atomic import noise).
type atomic32 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic32) inc() {
	a.mu.Lock()
	a.v++
	a.mu.Unlock()
}

func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// TestLoopWorkers proves several receivers compose with several
// members: the loop must hold `workers` handler invocations in flight at
// once, across BOTH member servers. The handler is a rendezvous that
// only returns once all calls have arrived — a single receiver could
// never serve a second call while the first is parked, so completion
// itself is the proof of concurrency.
func TestLoopWorkers(t *testing.T) {
	const workers = 4
	space := ipc.NewSpace(0, nil)
	clientSpace := ipc.NewSpace(0, nil)
	t.Cleanup(func() { space.Destroy(); clientSpace.Destroy() })
	srvA, err := NewServer(space)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(space)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	inflight := 0
	rendezvous := func(m *ipc.Message, d *Dec) (*Reply, error) {
		mu.Lock()
		inflight++
		cond.Broadcast()
		for inflight < workers {
			cond.Wait()
		}
		mu.Unlock()
		r := NewReply()
		r.U64(d.U64() + 1)
		return r, nil
	}
	srvA.Handle(msgEcho, rendezvous)
	srvB.Handle(msgEcho, rendezvous)
	clients := make([]*Client, 2)
	for i, srv := range []*Server{srvA, srvB} {
		svc, err := space.CopySendRight(clientSpace, srv.Port)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewClient(clientSpace, svc, 10*time.Second)
	}
	serveAll(t, []*Server{srvA, srvB})
	loopDone := make(chan struct{})
	go func() {
		srvA.Loop.Run(workers)
		close(loopDone)
	}()

	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(c *Client, v uint64) {
			resp, err := c.Invoke(msgEcho, NewEnc().U64(v))
			if err != nil {
				errs <- err
				return
			}
			if got := resp.Dec.U64(); got != v+1 {
				errs <- fmt.Errorf("got %d, want %d", got, v+1)
				return
			}
			resp.Release()
			errs <- nil
		}(clients[i%2], uint64(i))
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	srvA.Stop()
	srvB.Stop()
	<-loopDone
}
