// Root benchmark harness: one testing.B benchmark per experiment table
// (E2..E8, see DESIGN.md §5 and EXPERIMENTS.md), plus micro-benchmarks of
// the primitives the paper's performance story rests on. Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/mach"
)

// benchTable runs an experiment once per iteration, proving the table is
// regenerable and timing the whole experiment.
func benchTable(b *testing.B, fn func() experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := fn()
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

// BenchmarkE2MessageCopyVsCOW regenerates E2 (eager copy vs COW message
// transfer).
func BenchmarkE2MessageCopyVsCOW(b *testing.B) {
	benchTable(b, experiments.E2MessageCopyVsCOW)
}

// BenchmarkE3UnixCacheVsMach regenerates E3 (buffer cache vs mapped
// files).
func BenchmarkE3UnixCacheVsMach(b *testing.B) {
	benchTable(b, experiments.E3UnixCacheVsMach)
}

// BenchmarkE4ArchLatency regenerates E4 (UMA/NUMA/NORMA taxonomy).
func BenchmarkE4ArchLatency(b *testing.B) {
	benchTable(b, experiments.E4ArchLatency)
}

// BenchmarkE5SharedMemoryLocality regenerates E5 (shared memory vs
// locality).
func BenchmarkE5SharedMemoryLocality(b *testing.B) {
	benchTable(b, experiments.E5SharedMemoryLocality)
}

// BenchmarkE6Migration regenerates E6 (copy-on-reference migration).
func BenchmarkE6Migration(b *testing.B) {
	benchTable(b, experiments.E6Migration)
}

// BenchmarkE7CamelotWAL regenerates E7 (recoverable VM / WAL).
func BenchmarkE7CamelotWAL(b *testing.B) {
	benchTable(b, experiments.E7CamelotWAL)
}

// BenchmarkE8FaultPath regenerates E8 (fault path costs).
func BenchmarkE8FaultPath(b *testing.B) {
	benchTable(b, experiments.E8FaultPath)
}

// BenchmarkE9Ablations regenerates E9 (design-choice ablations).
func BenchmarkE9Ablations(b *testing.B) {
	benchTable(b, experiments.E9Ablations)
}

// BenchmarkE10NetmsgCrossHost regenerates E10 (cross-host RPC through
// netmsg proxies vs direct rights).
func BenchmarkE10NetmsgCrossHost(b *testing.B) {
	benchTable(b, experiments.E10NetmsgCrossHost)
}

// --- primitive micro-benchmarks (real time, not simulated) -----------------

// BenchmarkIPCRoundTrip measures msg_send + msg_receive through a port
// pair within one host.
func BenchmarkIPCRoundTrip(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	server := k.NewTask()
	client := k.NewTask()
	svc, _ := server.Space.AllocatePort()
	go func() {
		for {
			m, err := server.Receive(svc, mach.ReceiveOptions{})
			if err != nil {
				return
			}
			_ = server.Send(&mach.Message{ID: m.ID + 1, RemotePort: m.RemotePort},
				mach.SendOptions{Force: true})
		}
	}()
	name, _ := server.Space.CopySendRight(client.Space, svc)
	reply, _ := client.Space.AllocatePort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(&mach.Message{ID: 1, RemotePort: name, LocalPort: reply}, mach.SendOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Receive(reply, mach.ReceiveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendWithRefCounting measures the plain send/receive fast
// path under the port-lifecycle subsystem's sender-reference
// accounting, with the message built the unpooled way. The reference
// counts live inside locks the path already takes, so the path must
// show the plain-literal profile: ~2 allocs/op (the caller's message +
// section array — the queue slot and wakeup channel of the seed's 4
// are gone), no additions. BenchmarkIPCSend is the pooled counterpart
// that drives this to zero.
func BenchmarkSendWithRefCounting(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	recvT := k.NewTask()
	sendT := k.NewTask()
	n, _ := recvT.Space.AllocatePort()
	_ = recvT.Space.SetBacklog(n, 1<<30)
	sn, _ := recvT.Space.CopySendRight(sendT.Space, n)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &mach.Message{ID: 1, RemotePort: sn, Sections: []mach.Section{mach.InlineBytes(payload)}}
		if err := sendT.Send(m, mach.SendOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := recvT.Receive(n, mach.ReceiveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPCSend measures the allocation-free msg_send fast path: a
// pooled message built with GetMessage+AppendInline, sent to a port a
// concurrent receiver drains (releasing each message back to the pool).
// Steady state is 0 allocs/op; the CI trajectory gate pins it at ≤1.
func BenchmarkIPCSend(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	var drain sync.WaitGroup
	defer drain.Wait()
	defer k.Shutdown()
	recvT := k.NewTask()
	sendT := k.NewTask()
	n, _ := recvT.Space.AllocatePort()
	_ = recvT.Space.SetBacklog(n, 1024)
	sn, _ := recvT.Space.CopySendRight(sendT.Space, n)
	drain.Add(1)
	go func() {
		defer drain.Done()
		for {
			m, err := recvT.Receive(n, mach.ReceiveOptions{})
			if err != nil {
				return
			}
			m.Release()
		}
	}()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mach.GetMessage()
		m.ID = 1
		m.RemotePort = sn
		m.AppendInline(payload)
		if err := sendT.Send(m, mach.SendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPCReceive measures the matching msg_receive fast path: a
// concurrent sender keeps the port's queue fed with pooled messages,
// the timed loop receives and releases. Steady state is 0 allocs/op;
// the CI trajectory gate pins it at ≤1.
func BenchmarkIPCReceive(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	var feed sync.WaitGroup
	defer feed.Wait()
	defer k.Shutdown()
	recvT := k.NewTask()
	sendT := k.NewTask()
	n, _ := recvT.Space.AllocatePort()
	_ = recvT.Space.SetBacklog(n, 1024)
	sn, _ := recvT.Space.CopySendRight(sendT.Space, n)
	payload := make([]byte, 64)
	feed.Add(1)
	go func() {
		defer feed.Done()
		for {
			m := mach.GetMessage()
			m.ID = 1
			m.RemotePort = sn
			m.AppendInline(payload)
			if err := sendT.Send(m, mach.SendOptions{}); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := recvT.Receive(n, mach.ReceiveOptions{Timeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkNoSendersRoundTrip measures the full no-senders cycle: arm,
// mint a send right into a client space, drop it, receive the
// notification on the notify port, and confirm it against the make-send
// count.
func BenchmarkNoSendersRoundTrip(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	server := k.NewTask()
	client := k.NewTask()
	n, _ := server.Space.AllocatePort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := server.Space.RequestNoSenders(n); err != nil {
			b.Fatal(err)
		}
		cn, err := server.Space.CopySendRight(client.Space, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := client.Space.DeallocatePort(cn); err != nil {
			b.Fatal(err)
		}
		m, err := server.Receive(server.Space.NotifyPort(), mach.ReceiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if m.ID != mach.MsgIDNoSenders {
			b.Fatalf("notification ID %d", m.ID)
		}
		m.Release()
	}
}

// BenchmarkPortSetRPCRoundTrip measures a full typed RPC round trip
// against three services hosted on ONE space two ways: each service
// with its own dedicated Run loop (three goroutines), and all three
// served by one receiver of a single loop (the first server's, holding
// the other two ports). The port-set path must stay within ~10% of
// the dedicated-loop number — the price of one receive point for many
// ports is a set-waiter handoff and a short member scan, not a
// broadcast.
func BenchmarkPortSetRPCRoundTrip(b *testing.B) {
	const msgEcho mach.MsgID = 9800
	run := func(b *testing.B, portset bool) {
		k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
		defer k.Shutdown()
		server := k.NewTask()
		client := k.NewTask()
		srvs := make([]*mach.RPCServer, 3)
		clients := make([]*mach.RPCClient, 3)
		for i := range srvs {
			srv, err := mach.NewRPCServer(server.Space)
			if err != nil {
				b.Fatal(err)
			}
			srv.Handle(msgEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
				v := d.U64()
				if err := d.Err(); err != nil {
					return nil, err
				}
				r := mach.NewRPCReply()
				r.U64(v)
				return r, nil
			})
			svc, err := server.Space.CopySendRight(client.Space, srv.Port)
			if err != nil {
				b.Fatal(err)
			}
			srvs[i] = srv
			clients[i] = mach.NewRPCClient(client.Space, svc, 30*time.Second)
		}
		if portset {
			for _, srv := range srvs[1:] {
				if err := srvs[0].Loop.Serve(srv.Port, srv.Serve); err != nil {
					b.Fatal(err)
				}
			}
			go srvs[0].Run()
		} else {
			for _, srv := range srvs {
				go srv.Run()
			}
		}
		defer func() {
			for _, srv := range srvs {
				srv.Stop()
			}
		}()
		// Warm up all three services, then time calls spread across
		// them.
		for i, c := range clients {
			if _, err := c.Invoke(msgEcho, mach.NewEnc().U64(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := clients[i%3].Invoke(msgEcho, mach.NewEnc().U64(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			if resp.Dec.U64() != uint64(i) {
				b.Fatal("wrong echo")
			}
		}
	}
	b.Run("dedicated-loops", func(b *testing.B) { run(b, false) })
	b.Run("port-set-one-loop", func(b *testing.B) { run(b, true) })
}

// BenchmarkIPCSendParallel measures one-way msg_send throughput through
// one task's port space with 1, 4 and 16 concurrent sender threads, each
// targeting its own port of a receiver task. The sharded port namespace
// lets the name lookups proceed in parallel instead of serializing on a
// space-wide lock; throughput per sender should hold (and on multicore
// hardware rise) as senders are added.
func BenchmarkIPCSendParallel(b *testing.B) {
	for _, senders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
			// LIFO: Shutdown destroys the spaces, which unblocks the
			// drainers; then wait for them.
			var drainers sync.WaitGroup
			defer drainers.Wait()
			defer k.Shutdown()
			receiver := k.NewTask()
			sender := k.NewTask()
			names := make([]mach.Name, senders)
			for i := range names {
				svc, err := receiver.Space.AllocatePort()
				if err != nil {
					b.Fatal(err)
				}
				if err := receiver.Space.SetBacklog(svc, 1024); err != nil {
					b.Fatal(err)
				}
				n, err := receiver.Space.CopySendRight(sender.Space, svc)
				if err != nil {
					b.Fatal(err)
				}
				names[i] = n
				drainers.Add(1)
				go func(svc mach.Name) {
					defer drainers.Done()
					for {
						if _, err := receiver.Receive(svc, mach.ReceiveOptions{}); err != nil {
							return
						}
					}
				}(svc)
			}
			per := b.N / senders
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < senders; i++ {
				wg.Add(1)
				go func(n mach.Name) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := sender.Send(&mach.Message{ID: 1, RemotePort: n}, mach.SendOptions{}); err != nil {
							b.Error(err)
							return
						}
					}
				}(names[i])
			}
			wg.Wait()
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(per*senders)/elapsed.Seconds(), "msgs/s")
			}
		})
	}
}

// BenchmarkIPCReceiveFanIn measures the service-port shape: 1, 4 or 16
// sender threads converge on ONE port drained by a single receiver.
func BenchmarkIPCReceiveFanIn(b *testing.B) {
	for _, senders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
			defer k.Shutdown()
			receiver := k.NewTask()
			sender := k.NewTask()
			svc, _ := receiver.Space.AllocatePort()
			_ = receiver.Space.SetBacklog(svc, 1024)
			name, _ := receiver.Space.CopySendRight(sender.Space, svc)
			per := b.N / senders
			if per == 0 {
				per = 1
			}
			total := per * senders
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < senders; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := sender.Send(&mach.Message{ID: 1, RemotePort: name}, mach.SendOptions{}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < total; i++ {
				if _, err := receiver.Receive(svc, mach.ReceiveOptions{Timeout: 10 * time.Second}); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(total)/elapsed.Seconds(), "msgs/s")
			}
		})
	}
}

// BenchmarkCrossHostRPCRoundTrip measures a full typed RPC round trip
// against the same echo server reached two ways: published directly to
// a client on the server's own host, and looked up by name from a
// second host so every request and reply is relayed through netmsg
// proxy ports. The delta is the real-time cost of location
// transparency (the simulated-time cost is E10's story).
func BenchmarkCrossHostRPCRoundTrip(b *testing.B) {
	const msgEcho mach.MsgID = 9900
	for _, remote := range []bool{false, true} {
		name := "same-host"
		if remote {
			name = "cross-host-netmsg"
		}
		b.Run(name, func(b *testing.B) {
			kernels, _, _ := mach.Complex(2, mach.NORMA, 256, 4096)
			defer kernels[0].Shutdown()
			defer kernels[1].Shutdown()
			server := kernels[0].NewTask()
			srv, err := mach.NewRPCServer(server.Space)
			if err != nil {
				b.Fatal(err)
			}
			srv.Handle(msgEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
				v := d.U64()
				if err := d.Err(); err != nil {
					return nil, err
				}
				r := mach.NewRPCReply()
				r.U64(v)
				return r, nil
			})
			go srv.Run()
			defer srv.Stop()
			if err := mach.NetMsgCheckIn(server, "echo", srv.Port); err != nil {
				b.Fatal(err)
			}
			client := kernels[0].NewTask()
			if remote {
				client = kernels[1].NewTask()
			}
			svc, err := mach.NetMsgLookUp(client, "echo")
			if err != nil {
				b.Fatal(err)
			}
			c := mach.NewRPCClient(client.Space, svc, 30*time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := c.Invoke(msgEcho, mach.NewEnc().U64(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if resp.Dec.U64() != uint64(i) {
					b.Fatal("wrong echo")
				}
			}
		})
	}
}

// BenchmarkZeroFillFault measures the vm_allocate + first-touch path.
func BenchmarkZeroFillFault(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: 4096})
	defer k.Shutdown()
	task := k.NewTask()
	const chunk = 64 * 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := task.VMAllocate(0, chunk, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := task.Map.Touch(addr, chunk, mach.ProtWrite); err != nil {
			b.Fatal(err)
		}
		if err := task.VMDeallocate(addr, chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64), "faults")
}

// BenchmarkCOWForkTouch measures fork + child touching every page (COW
// resolution).
func BenchmarkCOWForkTouch(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: 4096})
	defer k.Shutdown()
	parent := k.NewTask()
	const chunk = 32 * 4096
	addr, _ := parent.VMAllocate(0, chunk, true)
	_ = parent.Map.Touch(addr, chunk, mach.ProtWrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := parent.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if err := child.Map.Touch(addr, chunk, mach.ProtWrite); err != nil {
			b.Fatal(err)
		}
		child.Terminate()
	}
}

// BenchmarkOOLTransfer measures a 256 KiB out-of-line (COW) message
// transfer, untouched by the receiver.
func BenchmarkOOLTransfer(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: 4096})
	defer k.Shutdown()
	sender := k.NewTask()
	receiver := k.NewTask()
	svc, _ := receiver.Space.AllocatePort()
	_ = receiver.Space.SetBacklog(svc, 4)
	name, _ := receiver.Space.CopySendRight(sender.Space, svc)
	const size = 256 * 1024
	addr, _ := sender.VMAllocate(0, size, true)
	_ = sender.Map.Touch(addr, size, mach.ProtWrite)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region, err := k.NewOOLRegion(sender, addr, size)
		if err != nil {
			b.Fatal(err)
		}
		if err := sender.Send(&mach.Message{ID: 1, RemotePort: name,
			Sections: []mach.Section{mach.CarryRegion(region)}}, mach.SendOptions{}); err != nil {
			b.Fatal(err)
		}
		m, err := receiver.Receive(svc, mach.ReceiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		raddr, err := k.MapOOLRegion(receiver, m.FirstRegion())
		if err != nil {
			b.Fatal(err)
		}
		if err := receiver.VMDeallocate(raddr, size); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagerBackedFault measures a fault served by a user-level data
// manager over the full IPC protocol.
func BenchmarkPagerBackedFault(b *testing.B) {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: 4096})
	defer k.Shutdown()
	task := k.NewTask()
	mgrTask := k.NewTask()
	mgr := mach.NewManager(mgrTask.Space, benchPager{})
	mo, err := mgr.NewObject(nil)
	if err != nil {
		b.Fatal(err)
	}
	go mgr.Run()
	defer mgr.Stop()
	name, _ := mgrTask.Space.CopySendRight(task.Space, mo.Port)
	const npages = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := task.VMAllocateWithPager(name, 0, 0, npages*4096, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := task.Map.Touch(addr, npages*4096, mach.ProtRead); err != nil {
			b.Fatal(err)
		}
		if err := task.VMDeallocate(addr, npages*4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*npages), "faults")
}

// benchPager answers every request with a constant page.
type benchPager struct{ mach.NopHandler }

func (benchPager) DataRequest(mo *mach.MemoryObject, offset, length uint64, desired mach.Prot) {
	_ = mo.DataProvided(offset, make([]byte, length), mach.ProtNone)
}

// --- multicore sweep --------------------------------------------------------
//
// The BenchmarkMulticore* family reruns the contended IPC shapes under
// GOMAXPROCS 1, 2, 4 and 8 — the machine-checkable core of the perf
// trajectory (ROADMAP item 4): each BENCH_<n>.json records msgs/s per
// processor count, so scaling regressions (a lock that serializes, a
// pool that bounces) show up as a trajectory diff, not an anecdote.
// `machbench mcore` runs the same sweep standalone with mutex/block
// profiles.

// benchProcs is the GOMAXPROCS ladder the sweep climbs.
var benchProcs = []int{1, 2, 4, 8}

// withProcs pins GOMAXPROCS for one sub-benchmark.
func withProcs(b *testing.B, procs int, fn func(b *testing.B, procs int)) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn(b, procs)
}

// BenchmarkMulticoreSend: `procs` senders, each flooding its own port of
// one receiver task (the shard-scaling shape of PR 1), pooled messages.
func BenchmarkMulticoreSend(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			withProcs(b, procs, func(b *testing.B, procs int) {
				k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
				var drainers sync.WaitGroup
				defer drainers.Wait()
				defer k.Shutdown()
				receiver := k.NewTask()
				sender := k.NewTask()
				names := make([]mach.Name, procs)
				for i := range names {
					svc, err := receiver.Space.AllocatePort()
					if err != nil {
						b.Fatal(err)
					}
					_ = receiver.Space.SetBacklog(svc, 1024)
					names[i], _ = receiver.Space.CopySendRight(sender.Space, svc)
					drainers.Add(1)
					go func(svc mach.Name) {
						defer drainers.Done()
						for {
							m, err := receiver.Receive(svc, mach.ReceiveOptions{})
							if err != nil {
								return
							}
							m.Release()
						}
					}(svc)
				}
				per := b.N / procs
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < procs; i++ {
					wg.Add(1)
					go func(n mach.Name) {
						defer wg.Done()
						for j := 0; j < per; j++ {
							m := mach.GetMessage()
							m.ID = 1
							m.RemotePort = n
							if err := sender.Send(m, mach.SendOptions{}); err != nil {
								b.Error(err)
								return
							}
						}
					}(names[i])
				}
				wg.Wait()
				b.StopTimer()
				if e := b.Elapsed(); e > 0 {
					b.ReportMetric(float64(per*procs)/e.Seconds(), "msgs/s")
				}
			})
		})
	}
}

// BenchmarkMulticoreFanIn: `procs` senders converge on ONE port drained
// by a single receiver — the service-port contention shape.
func BenchmarkMulticoreFanIn(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			withProcs(b, procs, func(b *testing.B, procs int) {
				k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
				defer k.Shutdown()
				receiver := k.NewTask()
				sender := k.NewTask()
				svc, _ := receiver.Space.AllocatePort()
				_ = receiver.Space.SetBacklog(svc, 1024)
				name, _ := receiver.Space.CopySendRight(sender.Space, svc)
				per := b.N / procs
				if per == 0 {
					per = 1
				}
				total := per * procs
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < procs; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < per; j++ {
							m := mach.GetMessage()
							m.ID = 1
							m.RemotePort = name
							if err := sender.Send(m, mach.SendOptions{}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				for i := 0; i < total; i++ {
					m, err := receiver.Receive(svc, mach.ReceiveOptions{Timeout: 10 * time.Second})
					if err != nil {
						b.Fatal(err)
					}
					m.Release()
				}
				wg.Wait()
				b.StopTimer()
				if e := b.Elapsed(); e > 0 {
					b.ReportMetric(float64(total)/e.Seconds(), "msgs/s")
				}
			})
		})
	}
}

// BenchmarkMulticoreRPC: `procs` clients issue pooled typed calls
// against one echo service whose loop runs as many receivers.
func BenchmarkMulticoreRPC(b *testing.B) {
	const msgEcho mach.MsgID = 9700
	for _, procs := range benchProcs {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			withProcs(b, procs, func(b *testing.B, procs int) {
				k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
				defer k.Shutdown()
				server := k.NewTask()
				srv, err := mach.NewRPCServer(server.Space)
				if err != nil {
					b.Fatal(err)
				}
				srv.Handle(msgEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
					v := d.U64()
					if err := d.Err(); err != nil {
						return nil, err
					}
					r := mach.NewRPCReply()
					r.U64(v)
					return r, nil
				})
				go srv.Loop.Run(procs)
				defer srv.Stop()
				per := b.N / procs
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < procs; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						task := k.NewTask()
						svc, err := server.Space.CopySendRight(task.Space, srv.Port)
						if err != nil {
							b.Error(err)
							return
						}
						client := mach.NewRPCClient(task.Space, svc, 30*time.Second)
						req := mach.NewEnc()
						for j := 0; j < per; j++ {
							resp, err := client.Call(msgEcho, req.Reset().U64(uint64(j)))
							if err != nil {
								b.Error(err)
								return
							}
							if resp.Dec.U64() != uint64(j) {
								b.Error("wrong echo")
								return
							}
							resp.Release()
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if e := b.Elapsed(); e > 0 {
					b.ReportMetric(float64(per*procs)/e.Seconds(), "msgs/s")
				}
			})
		})
	}
}

// BenchmarkMulticorePortSet: `procs` clients call three services
// multiplexed through one loop with one receiver — set handoff under
// parallel load.
func BenchmarkMulticorePortSet(b *testing.B) {
	const msgEcho mach.MsgID = 9600
	for _, procs := range benchProcs {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			withProcs(b, procs, func(b *testing.B, procs int) {
				k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
				defer k.Shutdown()
				server := k.NewTask()
				srvs := make([]*mach.RPCServer, 3)
				for i := range srvs {
					srv, err := mach.NewRPCServer(server.Space)
					if err != nil {
						b.Fatal(err)
					}
					srv.Handle(msgEcho, func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
						v := d.U64()
						if err := d.Err(); err != nil {
							return nil, err
						}
						r := mach.NewRPCReply()
						r.U64(v)
						return r, nil
					})
					srvs[i] = srv
					if err := srvs[0].Loop.Serve(srv.Port, srv.Serve); err != nil {
						b.Fatal(err)
					}
				}
				go srvs[0].Run()
				defer func() {
					for _, srv := range srvs {
						srv.Stop()
					}
				}()
				per := b.N / procs
				if per == 0 {
					per = 1
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < procs; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						task := k.NewTask()
						svc, err := server.Space.CopySendRight(task.Space, srvs[c%3].Port)
						if err != nil {
							b.Error(err)
							return
						}
						client := mach.NewRPCClient(task.Space, svc, 30*time.Second)
						req := mach.NewEnc()
						for j := 0; j < per; j++ {
							resp, err := client.Call(msgEcho, req.Reset().U64(uint64(j)))
							if err != nil {
								b.Error(err)
								return
							}
							resp.Release()
						}
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				if e := b.Elapsed(); e > 0 {
					b.ReportMetric(float64(per*procs)/e.Seconds(), "msgs/s")
				}
			})
		})
	}
}
