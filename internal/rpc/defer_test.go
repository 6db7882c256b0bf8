package rpc

import (
	"testing"
	"time"

	"repro/internal/ipc"
)

// msgLater defers its reply to whoever reads the deferreds channel the
// test hands it; inside a batch, where Defer refuses, it answers inline.
const msgLater ipc.MsgID = 7020

func laterHandler(srv *Server, deferreds chan<- Deferred) HandlerFunc {
	return func(m *ipc.Message, d *Dec) (*Reply, error) {
		if dr, ok := srv.Defer(m); ok {
			deferreds <- dr
			return NewReply(), nil
		}
		r := NewReply()
		r.Tail([]byte("inline"))
		return r, nil
	}
}

// TestDeferredReplyAfterHandlerReturns: the server sends nothing for a
// deferred request when its handler returns; the client's reply is the
// one Deferred.Reply sends later, from another goroutine.
func TestDeferredReplyAfterHandlerReturns(t *testing.T) {
	srv, client, _ := testPair(t)
	deferreds := make(chan Deferred, 1)
	srv.Handle(msgLater, laterHandler(srv, deferreds))
	srv.Handle(msgEcho, echoHandler)
	go srv.Run()
	defer srv.Stop()

	type result struct {
		st  Status
		err error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.Call(msgLater, nil)
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{st: resp.Status}
	}()
	dr := <-deferreds

	// The serve loop is serial: a second client's echo answered means the
	// deferring handler returned and its serve call finished.
	other := ipc.NewSpace(0, nil)
	defer other.Destroy()
	svc, err := srv.Space.CopySendRight(other, srv.Port)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(other, svc, 5*time.Second).Invoke(msgEcho, NewEnc().U8(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		t.Fatalf("deferred call answered before Reply: %+v", r)
	default:
	}

	dr.Reply(StatusNotFound)
	r := <-done
	if r.err != nil || r.st != StatusNotFound {
		t.Fatalf("deferred call got %+v, want StatusNotFound", r)
	}
}

// TestDeferredReplyKeepsTrace: the deferred reply joins the request's
// trace, as an inline reply does.
func TestDeferredReplyKeepsTrace(t *testing.T) {
	srv, client, clientSpace := testPair(t)
	deferreds := make(chan Deferred, 1)
	srv.Handle(msgLater, laterHandler(srv, deferreds))
	go srv.Run()
	defer srv.Stop()

	const trace = 0x7ACE
	req := ipc.GetMessage()
	req.ID = msgLater
	req.RemotePort = client.Svc
	req.SetTrace(trace)
	replies := make(chan *ipc.Message, 1)
	errs := make(chan error, 1)
	go func() {
		reply, err := clientSpace.RPC(req, 5*time.Second, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		replies <- reply
	}()
	(<-deferreds).Reply(StatusOK)
	select {
	case err := <-errs:
		t.Fatal(err)
	case reply := <-replies:
		if got := reply.Trace(); got != trace {
			t.Fatalf("deferred reply trace %#x, want %#x", got, trace)
		}
		reply.Release()
	}
}

// TestBatchSubCallCannotDefer: Defer refuses a batched sub-call, so the
// handler answers inline and the container's reply carries it with its
// neighbour's.
func TestBatchSubCallCannotDefer(t *testing.T) {
	srv, client, _ := testPair(t)
	deferreds := make(chan Deferred, 1)
	srv.Handle(msgLater, laterHandler(srv, deferreds))
	srv.Handle(msgSucc, succHandler)
	go srv.Run()
	defer srv.Stop()

	b := client.NewBatch()
	later := b.Add(msgLater, nil)
	succ := b.Add(msgSucc, NewEnc().U64(4))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(deferreds) != 0 {
		t.Fatal("a batched sub-call deferred its reply")
	}
	if err := later.Err(); err != nil {
		t.Fatal(err)
	}
	if got := string(later.Dec().Tail()); got != "inline" {
		t.Fatalf("batched sub-call reply %q, want inline", got)
	}
	if err := succ.Err(); err != nil {
		t.Fatal(err)
	}
	if got := succ.Dec().U64(); got != 5 {
		t.Fatalf("neighbour reply %d, want 5", got)
	}
}
