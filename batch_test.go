// Cross-host batched RPC: the generated ...Batch stubs and rpc.Batch
// container exist to amortise the netmsg relay — one proxy forward per
// batch instead of one per call. These tests pin the contract end to
// end across the wire (replies matched out of order, per-call failures
// isolated) and the claim behind the throughput: a batch of 16 crosses
// the interconnect once each way, not 16 times.
package repro

import (
	"testing"
	"time"

	"repro/mach"
)

const msgBatchEcho mach.MsgID = 9910

// echoPoison makes the echo server fail one call on purpose (sits far
// above any loop counter a test or benchmark sends).
const echoPoison = uint64(1) << 62

// newCrossHostEcho boots a two-host complex with an echo server on host
// 0 checked in under "batch-echo", and returns an RPC client bound to
// it from host 1 — every call crosses the netmsg relay, and the
// interconnect counts the crossings.
func newCrossHostEcho(tb testing.TB) (*mach.RPCClient, *mach.Topology, func()) {
	tb.Helper()
	kernels, topo, _ := mach.Complex(2, mach.NORMA, 256, 4096)
	shutdown := func() {
		kernels[0].Shutdown()
		kernels[1].Shutdown()
	}
	server := kernels[0].NewTask()
	srv, err := mach.NewRPCServer(server.Space)
	if err != nil {
		shutdown()
		tb.Fatal(err)
	}
	srv.Handle(msgBatchEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
		v := d.U64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if v == echoPoison {
			// Poison value: lets tests exercise per-call failure.
			return nil, mach.RPCStatus(mach.StatusBadArgs).Err()
		}
		r := mach.NewRPCReply()
		r.U64(v * 2)
		return r, nil
	})
	go srv.Run()
	if err := mach.NetMsgCheckIn(server, "batch-echo", srv.Port); err != nil {
		srv.Stop()
		shutdown()
		tb.Fatal(err)
	}
	client := kernels[1].NewTask()
	svc, err := mach.NetMsgLookUp(client, "batch-echo")
	if err != nil {
		srv.Stop()
		shutdown()
		tb.Fatal(err)
	}
	c := mach.NewRPCClient(client.Space, svc, 30*time.Second)
	return c, topo, func() {
		srv.Stop()
		shutdown()
	}
}

// TestCrossHostBatchedRPC drives a 16-call batch through the netmsg
// relay: every reply must reach its own pending handle, and a failing
// call in the middle must not tear the rest of the batch.
func TestCrossHostBatchedRPC(t *testing.T) {
	c, _, stop := newCrossHostEcho(t)
	defer stop()

	const n = 16
	b := c.NewBatch()
	calls := make([]*mach.RPCBatchCall, n)
	for i := 0; i < n; i++ {
		v := uint64(i)
		if i == 7 {
			v = echoPoison // this one fails server-side
		}
		calls[i] = b.Add(msgBatchEcho, mach.NewEnc().U64(v))
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i, bc := range calls {
		if !bc.Done() {
			t.Fatalf("call %d: no reply matched", i)
		}
		if i == 7 {
			if bc.Status() != mach.StatusBadArgs {
				t.Fatalf("poison call status %v, want BadArgs", bc.Status())
			}
			continue
		}
		if bc.Err() != nil {
			t.Fatalf("call %d: %v", i, bc.Err())
		}
		d := bc.Dec()
		if got := d.U64(); got != uint64(i)*2 {
			t.Fatalf("call %d echoed %d, want %d", i, got, i*2)
		}
	}

	// The batch is reusable after Reset.
	b.Reset()
	bc := b.Add(msgBatchEcho, mach.NewEnc().U64(21))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if bc.Err() != nil || bc.Dec().U64() != 42 {
		t.Fatalf("reused batch: err=%v", bc.Err())
	}
}

// TestCrossHostBatchedRPCSpeedup is the acceptance gate for batching.
// What batching buys is a count: with 16 calls per batch, 15 of every 16
// relay round trips are saved, so the messages that cross the
// interconnect per call must fall at least 8x. The count is the same on
// every run; the wall-clock ratio it produces depends on the machine
// (2x to 15x, and below 1x on an unlucky two-core run) and is only
// logged.
func TestCrossHostBatchedRPCSpeedup(t *testing.T) {
	c, topo, stop := newCrossHostEcho(t)
	defer stop()

	const batchN = 16
	const total = 512

	sequential := func() {
		for i := 0; i < total; i++ {
			resp, err := c.Invoke(msgBatchEcho, mach.NewEnc().U64(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Dec.U64() != uint64(i)*2 {
				t.Fatal("wrong echo")
			}
		}
	}
	batched := func() {
		b := c.NewBatch()
		for i := 0; i < total; i += batchN {
			b.Reset()
			calls := make([]*mach.RPCBatchCall, batchN)
			for j := 0; j < batchN; j++ {
				calls[j] = b.Add(msgBatchEcho, mach.NewEnc().U64(uint64(i+j)))
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			for j, bc := range calls {
				if bc.Err() != nil {
					t.Fatal(bc.Err())
				}
				if bc.Dec().U64() != uint64(i+j)*2 {
					t.Fatal("wrong echo")
				}
			}
		}
	}
	// measure runs f and returns its duration and the messages that
	// crossed the interconnect per call.
	measure := func(f func()) (time.Duration, float64) {
		before, start := topo.Stats().RemoteMessages, time.Now()
		f()
		return time.Since(start), float64(topo.Stats().RemoteMessages-before) / total
	}

	// Warm both paths (proxy setup, scheduler) before measuring.
	sequential()
	batched()

	seqDur, seqMsgs := measure(sequential)
	batDur, batMsgs := measure(batched)
	t.Logf("sequential %.0f calls/s, batched(%d) %.0f calls/s (%.1fx); relay messages per call %.3f -> %.3f",
		total/seqDur.Seconds(), batchN, total/batDur.Seconds(), seqDur.Seconds()/batDur.Seconds(), seqMsgs, batMsgs)
	if seqMsgs < 2 {
		t.Fatalf("sequential calls crossed the interconnect %.3f times each, want a request and a reply", seqMsgs)
	}
	if batMsgs*8 > seqMsgs {
		t.Fatalf("batched calls cross the interconnect %.3f times each, sequential %.3f: want at least 8x fewer",
			batMsgs, seqMsgs)
	}
}

// BenchmarkCrossHostBatchedRPC reports per-call cost over the netmsg
// relay, sequential vs batched at 16 calls per message (informational
// series; the pinned fast paths live elsewhere).
func BenchmarkCrossHostBatchedRPC(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		c, _, stop := newCrossHostEcho(b)
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Invoke(msgBatchEcho, mach.NewEnc().U64(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			if resp.Dec.U64() != uint64(i)*2 {
				b.Fatal("wrong echo")
			}
		}
	})
	b.Run("batched-16", func(b *testing.B) {
		c, _, stop := newCrossHostEcho(b)
		defer stop()
		const batchN = 16
		bat := c.NewBatch()
		b.ResetTimer()
		for i := 0; i < b.N; i += batchN {
			bat.Reset()
			n := batchN
			if rem := b.N - i; rem < n {
				n = rem
			}
			calls := make([]*mach.RPCBatchCall, n)
			for j := 0; j < n; j++ {
				calls[j] = bat.Add(msgBatchEcho, mach.NewEnc().U64(uint64(i+j)))
			}
			if err := bat.Commit(); err != nil {
				b.Fatal(err)
			}
			for j, bc := range calls {
				if bc.Err() != nil {
					b.Fatal(bc.Err())
				}
				if bc.Dec().U64() != uint64(i+j)*2 {
					b.Fatal("wrong echo")
				}
			}
		}
	})
}
