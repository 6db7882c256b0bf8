package rpc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ipc"
)

// msgSucc replies with its u64 argument plus one; odd arguments are
// rejected with StatusBadArgs so tests can interleave failures.
const msgSucc ipc.MsgID = 7010

func succHandler(m *ipc.Message, d *Dec) (*Reply, error) {
	v := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if v%2 == 1 {
		return nil, Errf(StatusBadArgs, "odd argument %d", v)
	}
	r := NewReply()
	r.U64(v + 1)
	return r, nil
}

// TestBatchRoundTrip: N pipelined calls through one container message,
// each reply matched back to its handle.
func TestBatchRoundTrip(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgSucc, succHandler)
	go srv.Run()
	defer srv.Stop()

	const n = 16
	b := client.NewBatch()
	handles := make([]*BatchCall, n)
	for i := 0; i < n; i++ {
		handles[i] = b.Add(msgSucc, NewEnc().U64(uint64(i*2)))
	}
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if err := h.Err(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		d := h.Dec()
		if got := d.U64(); got != uint64(i*2+1) {
			t.Fatalf("call %d: got %d, want %d", i, got, i*2+1)
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchPerCallErrorIsolation: one failing sub-call carries its own
// status without disturbing its neighbours — partial failure is
// per-call, never a torn batch.
func TestBatchPerCallErrorIsolation(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgSucc, succHandler)
	go srv.Run()
	defer srv.Stop()

	b := client.NewBatch()
	good1 := b.Add(msgSucc, NewEnc().U64(2))
	bad := b.Add(msgSucc, NewEnc().U64(3))        // odd: StatusBadArgs
	unknown := b.Add(msgSucc+99, NewEnc().U64(4)) // unregistered: StatusBadID
	nested := b.Add(MsgBatch, NewEnc().U32(0))    // nesting: StatusBadID
	good2 := b.Add(msgSucc, NewEnc().U64(8))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := bad.Status(); st != StatusBadArgs {
		t.Fatalf("odd argument: status %v, want StatusBadArgs", st)
	}
	if st := unknown.Status(); st != StatusBadID {
		t.Fatalf("unknown id: status %v, want StatusBadID", st)
	}
	if st := nested.Status(); st != StatusBadID {
		t.Fatalf("nested batch: status %v, want StatusBadID", st)
	}
	for i, h := range []*BatchCall{good1, good2} {
		if err := h.Err(); err != nil {
			t.Fatalf("good call %d failed: %v", i, err)
		}
	}
	if got := good1.Dec().U64(); got != 3 {
		t.Fatalf("good1 = %d, want 3", got)
	}
	if got := good2.Dec().U64(); got != 9 {
		t.Fatalf("good2 = %d, want 9", got)
	}
}

// TestBatchOutOfOrderMatching feeds the client-side matcher a container
// reply in permuted order: results must land on the right handles by
// sequence number alone.
func TestBatchOutOfOrderMatching(t *testing.T) {
	b := (&Client{}).NewBatch()
	h := make([]*BatchCall, 4)
	for i := range h {
		h[i] = b.Add(msgSucc, NewEnc().U64(uint64(i)))
	}
	// Craft sub-replies in reverse order, each carrying its seq as the
	// result field.
	reply := NewEnc().U32(4)
	for i := 3; i >= 0; i-- {
		reply.U32(uint32(i)).Status(StatusOK).Bytes(NewEnc().U64(uint64(100 + i)).Payload())
	}
	if err := b.match(NewDec(reply.Payload())); err != nil {
		t.Fatal(err)
	}
	for i, bc := range h {
		if !bc.Done() {
			t.Fatalf("call %d: no reply matched", i)
		}
		if got := bc.Dec().U64(); got != uint64(100+i) {
			t.Fatalf("call %d: got %d, want %d", i, got, 100+i)
		}
	}
}

// TestBatchMissingSubReply: a container reply that drops a sub-reply is
// a protocol error, not a silent hole.
func TestBatchMissingSubReply(t *testing.T) {
	b := (&Client{}).NewBatch()
	b.Add(msgSucc, nil)
	missing := b.Add(msgSucc, nil)
	reply := NewEnc().U32(1).U32(0).Status(StatusOK).Bytes(nil)
	if err := b.match(NewDec(reply.Payload())); err != ErrBatchNoReply {
		t.Fatalf("err = %v, want ErrBatchNoReply", err)
	}
	if err := missing.Err(); err != ErrBatchNoReply {
		t.Fatalf("missing.Err() = %v, want ErrBatchNoReply", err)
	}
}

// TestBatchUncommitted: consulting a handle before Commit reports
// ErrBatchNoReply rather than a zero status masquerading as StatusOK.
func TestBatchUncommitted(t *testing.T) {
	b := (&Client{}).NewBatch()
	h := b.Add(msgSucc, nil)
	if err := h.Err(); !errors.Is(err, ErrBatchNoReply) {
		t.Fatalf("err = %v, want ErrBatchNoReply", err)
	}
}

// TestBatchTooLarge: the server rejects a container over the call cap
// as a whole (torn execution is never an option).
func TestBatchTooLarge(t *testing.T) {
	srv, client, _ := testPair(t)
	srv.Handle(msgSucc, succHandler)
	go srv.Run()
	defer srv.Stop()

	b := client.NewBatch()
	for i := 0; i < maxBatchCalls+1; i++ {
		b.Add(msgSucc, NewEnc().U64(0))
	}
	err := b.Commit()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestBatchSectionReplyRejected: a method whose reply carries a section
// is not batch-eligible; batching it fails that call alone with
// StatusBadArgs and leaks no rights.
func TestBatchSectionReplyRejected(t *testing.T) {
	srv, client, serverSpace := testPairServerSpace(t)
	const msgMint ipc.MsgID = 7020
	srv.Handle(msgMint, func(m *ipc.Message, d *Dec) (*Reply, error) {
		p, err := serverSpace.AllocatePort()
		if err != nil {
			return nil, err
		}
		r := NewReply()
		r.CarryRelease(ipc.CarryRight(p, ipc.SendRight))
		return r, nil
	})
	srv.Handle(msgSucc, succHandler)
	go srv.Run()
	defer srv.Stop()

	b := client.NewBatch()
	h := b.Add(msgMint, nil)
	ok := b.Add(msgSucc, NewEnc().U64(0))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st != StatusBadArgs {
		t.Fatalf("section reply: status %v, want StatusBadArgs", st)
	}
	if err := ok.Err(); err != nil {
		t.Fatalf("inline neighbour failed: %v", err)
	}
}

// testPairServerSpace is testPair returning the server's space instead
// of the client's.
func testPairServerSpace(t *testing.T) (*Server, *Client, *ipc.Space) {
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
	return srv, NewClient(clientSpace, svc, 5*time.Second), serverSpace
}
