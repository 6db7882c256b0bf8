package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ipc"
)

// testPair builds a served space and a client space holding a send right
// to the service port.
func testPair(t *testing.T) (*Server, *Client, *ipc.Space) {
	t.Helper()
	serverSpace := ipc.NewSpace(0, nil)
	clientSpace := ipc.NewSpace(0, nil)
	srv, err := NewServer(serverSpace)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serverSpace.CopySendRight(clientSpace, srv.Port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		serverSpace.Destroy()
		clientSpace.Destroy()
	})
	return srv, NewClient(clientSpace, svc, 5*time.Second), clientSpace
}

const msgEcho ipc.MsgID = 7000

func echoHandler(m *ipc.Message, d *Dec) (*Reply, error) {
	r := NewReply()
	r.Tail(d.Tail())
	return r, nil
}

// TestServerEcho: a registered handler answers a typed call.
func TestServerEcho(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgEcho, echoHandler)
	go srv.Run()
	defer srv.Stop()

	resp, err := client.Invoke(msgEcho, NewEnc().Tail([]byte("ping")))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resp.Dec.Tail()); got != "ping" {
		t.Fatalf("echo: %q", got)
	}
}

// TestUnknownMsgIDFailsFast: an unregistered MsgID draws an immediate
// StatusBadID reply. In the seed repo's hand-rolled demux loops the
// request was silently dropped and the client blocked for its full
// timeout — assert that behavior is gone by bounding the wall time well
// under the client timeout.
func TestUnknownMsgIDFailsFast(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgEcho, echoHandler)
	go srv.Run()
	defer srv.Stop()

	start := time.Now()
	resp, err := client.Call(msgEcho+99, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadID {
		t.Fatalf("status: %v", resp.Status)
	}
	if !errors.Is(resp.Err(), ErrBadID) {
		t.Fatalf("err: %v", resp.Err())
	}
	if elapsed > client.Timeout/2 {
		t.Fatalf("bad-ID reply took %v — the old block-until-timeout behavior", elapsed)
	}
}

// TestHandlerErrorStatus: handler failures travel as their chosen wire
// status and decode failures as StatusBadArgs.
func TestHandlerErrorStatus(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgEcho, func(m *ipc.Message, d *Dec) (*Reply, error) {
		if d.U64() == 0 { // truncated request decodes to 0
			return nil, d.Err()
		}
		return nil, Errf(StatusNotFound, "nope")
	})
	go srv.Run()
	defer srv.Stop()

	resp, err := client.Call(msgEcho, NewEnc().U64(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNotFound {
		t.Fatalf("status: %v", resp.Status)
	}
	resp, err = client.Call(msgEcho, nil) // empty payload: truncated u64
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadArgs {
		t.Fatalf("truncated request status: %v", resp.Status)
	}
}

// TestGarbageReplyIsTypedError: a rogue "server" answering raw garbage
// produces a typed decode error at the client, never a misparse. This is
// the regression test for the seed repo's per-server status bytes, where
// a short or garbled reply could be read as success.
func TestGarbageReplyIsTypedError(t *testing.T) {
	serverSpace := ipc.NewSpace(0, nil)
	clientSpace := ipc.NewSpace(0, nil)
	defer serverSpace.Destroy()
	defer clientSpace.Destroy()
	svcLocal, _ := serverSpace.AllocatePort()
	svc, err := serverSpace.CopySendRight(clientSpace, svcLocal)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m, err := serverSpace.Receive(svcLocal, ipc.ReceiveOptions{})
			if err != nil {
				return
			}
			// Reply with an empty payload: no status byte at all.
			_ = serverSpace.Send(&ipc.Message{ID: m.ID, RemotePort: m.RemotePort},
				ipc.SendOptions{Force: true})
		}
	}()
	client := NewClient(clientSpace, svc, 5*time.Second)
	_, err = client.Call(msgEcho, NewEnc().U64(1))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("garbage reply: %v", err)
	}
}

// TestOneWayHandler: a handler returning (nil, nil) sends no reply and
// the server keeps serving.
func TestOneWayHandler(t *testing.T) {
	srv, client, _ := testPair(t)
	var notified atomic.Int32
	srv.Handle(msgEcho, echoHandler)
	srv.Handle(msgEcho+1, func(m *ipc.Message, d *Dec) (*Reply, error) {
		notified.Add(1)
		return nil, nil
	})
	go srv.Run()
	defer srv.Stop()

	// One-way send (no reply port).
	if err := client.Space.Send(&ipc.Message{ID: msgEcho + 1, RemotePort: client.Svc},
		ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	// A round trip after it proves the loop survived and ordering
	// delivered the one-way first.
	if _, err := client.Invoke(msgEcho, NewEnc().U8(1)); err != nil {
		t.Fatal(err)
	}
	if notified.Load() != 1 {
		t.Fatalf("one-way handler ran %d times", notified.Load())
	}
}

// TestWorkerPool: concurrent handlers run on a loop with several
// receivers and every call is answered.
func TestWorkerPool(t *testing.T) {
	srv, client, _ := testPair(t)
	var inflight, peak atomic.Int32
	srv.Handle(msgEcho, func(m *ipc.Message, d *Dec) (*Reply, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return echoHandler(m, d)
	})
	go srv.Loop.Run(4)
	defer srv.Stop()

	const calls = 16
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			resp, err := client.Invoke(msgEcho, NewEnc().U32(uint32(i)))
			if err == nil && resp.Dec.U32() != uint32(i) {
				err = errors.New("wrong echo")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("no concurrency observed (peak %d)", peak.Load())
	}
}

// TestStop: after Stop new calls fail fast and the Run loop exits.
func TestStop(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgEcho, echoHandler)
	done := make(chan struct{})
	go func() {
		srv.Run()
		close(done)
	}()
	if _, err := client.Invoke(msgEcho, NewEnc().U8(1)); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after Stop")
	}
	if _, err := client.Call(msgEcho, nil); err == nil {
		t.Fatal("call succeeded after Stop")
	}
}

// TestWorkerPoolSerialClients: several clients each issue back-to-back
// calls against a multi-worker server. Consecutive calls from one
// client reuse its cached reply port, so the server repeatedly receives
// send rights to the same port while another worker deallocates the
// name from the previous call — the aliasing that loses replies unless
// send-right user references (entry.srefs) keep the shared name alive.
// Regression test for a 30s-timeout hang found by the multicore RPC
// benchmark.
func TestWorkerPoolSerialClients(t *testing.T) {
	srv, _, _ := testPair(t)
	srv.Handle(msgEcho, echoHandler)
	go srv.Loop.Run(4)
	defer srv.Stop()

	const (
		clients = 4
		calls   = 300
	)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		clientSpace := ipc.NewSpace(0, nil)
		defer clientSpace.Destroy()
		svc, err := srv.Space.CopySendRight(clientSpace, srv.Port)
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(clientSpace, svc, 5*time.Second)
		go func() {
			req := NewEnc()
			for i := 0; i < calls; i++ {
				resp, err := client.Call(msgEcho, req.Reset().U32(uint32(i)))
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != StatusOK || resp.Dec.U32() != uint32(i) {
					resp.Release()
					errs <- errors.New("bad echo")
					return
				}
				resp.Release()
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
