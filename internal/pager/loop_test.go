package pager

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/rpc"
)

// loopFrames counts the goroutines whose stack is inside an ipc loop.
func loopFrames() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "ipc.(*Loop).")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestStoppedLoopsLeaveNoGoroutine starts and stops, one after another,
// a thousand standalone rpc servers on four receivers each, a thousand
// managers with an embedded rpc service, and a thousand servers that
// stop themselves from their own loop when their last client dies
// (StopWhenUnreferenced). Afterwards no goroutine remains in a loop: a
// Stop joins every receiver, and a receiver that stops its own loop does
// not wait for itself. A loop whose goroutine had not started by Stop
// returns as soon as it does, so the count is retried for up to a
// second.
func TestStoppedLoopsLeaveNoGoroutine(t *testing.T) {
	before := loopFrames()
	for i := 0; i < 1000; i++ {
		space := ipc.NewSpace(0, nil)
		srv, err := rpc.NewServer(space)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Loop.Run(4)
		srv.Stop()
		space.Destroy()
	}
	for i := 0; i < 1000; i++ {
		space := ipc.NewSpace(0, nil)
		mgr := NewManager(space, NopHandler{})
		srv, err := rpc.NewServer(space)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Loop.Serve(srv.Port, srv.Serve); err != nil {
			t.Fatal(err)
		}
		go mgr.Run()
		srv.Stop()
		mgr.Stop()
	}
	for i := 0; i < 1000; i++ {
		space, client := ipc.NewSpace(0, nil), ipc.NewSpace(0, nil)
		srv, err := rpc.NewServer(space)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := space.CopySendRight(client, srv.Port); err != nil {
			t.Fatal(err)
		}
		if err := srv.StopWhenUnreferenced(nil); err != nil {
			t.Fatal(err)
		}
		ran := make(chan struct{})
		go func() {
			srv.Loop.Run(2)
			close(ran)
		}()
		client.Destroy()
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("server %d: stopping from its own no-senders callback deadlocked", i)
		}
		if !srv.Stopped() {
			t.Fatalf("server %d: loop returned without Stop", i)
		}
		srv.Stop()
		space.Destroy()
	}
	var left int
	for wait := time.Millisecond; wait < time.Second; wait *= 2 {
		if left = loopFrames() - before; left <= 0 {
			return
		}
		time.Sleep(wait)
	}
	t.Fatalf("%d goroutines left in stopped loops", left)
}
