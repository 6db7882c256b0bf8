package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/camelot"
	"repro/mach"
)

// Probes drive one layer's public API alone, at the sizes the workloads
// use, for a fraction of a second each. They give the per-layer ledger
// the times that no span around a workload's call can isolate (what a
// same-host call costs, so that the relay's share of a cross-host call
// is a difference; what an fsync costs on either iomgr backend).

// probeConfig is what every probe gets.
type probeConfig struct {
	d   time.Duration // how long each timed loop runs
	n   int           // iterations of the probes that count, not time
	dir string        // scratch directory
}

// timeLoop calls fn repeatedly for about d, in batches so that reading
// the clock does not weigh on a sub-microsecond body, and returns the
// mean time and heap allocations of one call. fn reports failure through
// its return value, which stops the loop.
func timeLoop(d time.Duration, fn func() error) (us, allocs float64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var total time.Duration
	iters, batch := 0, 1
	for total < d {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(start)
		total += el
		iters += batch
		if el < time.Millisecond {
			batch *= 2
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(total.Nanoseconds()) / 1e3 / float64(iters), float64(ms.Mallocs-mallocs) / float64(iters), nil
}

var errWrongEcho = errors.New("echo returned other data than was sent")

// runProbes runs every probe and returns the metrics they fill.
func runProbes(pc probeConfig) (map[string]float64, error) {
	out := map[string]float64{}
	probes := []struct {
		name string
		run  func(probeConfig, map[string]float64) error
	}{
		{"ipc", probeIPC},
		{"rpc local", probeRPCLocal},
		{"rpc cross-host batch and lookups", probeCrossHost},
		{"rpc codec", probeCodec},
		{"vm", probeVM},
		{"out-of-line transfer", probeOOL},
		{"external pager fault", probeExternalFault},
		{"iomgr", probeIomgr},
		{"wal", probeWAL},
		{"span timer", probeTimer},
	}
	for _, p := range probes {
		if err := p.run(pc, out); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return out, nil
}

// probeIPC: one pooled message with the echo workload's payload, sent and
// received on one host.
func probeIPC(pc probeConfig, out map[string]float64) error {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: pageSize})
	defer k.Shutdown()
	recvT, sendT := k.NewTask(), k.NewTask()
	port, err := recvT.Space.AllocatePort()
	if err != nil {
		return err
	}
	name, err := recvT.Space.CopySendRight(sendT.Space, port)
	if err != nil {
		return err
	}
	payload := make([]byte, echoPayload)
	us, allocs, err := timeLoop(pc.d, func() error {
		m := mach.GetMessage()
		m.ID = 1
		m.RemotePort = name
		m.AppendInline(payload)
		if err := sendT.Send(m, mach.SendOptions{}); err != nil {
			return err
		}
		got, err := recvT.Receive(port, mach.ReceiveOptions{})
		if err != nil {
			return err
		}
		got.Release()
		return nil
	})
	out["ipc.send_recv_us"], out["ipc.send_recv_allocs"] = us, allocs
	return err
}

// startEcho runs the workload's echo server on a task of k.
func startEcho(k *mach.Kernel) (*mach.Task, *mach.RPCServer, error) {
	task := k.NewTask()
	srv, err := mach.NewRPCServer(task.Space)
	if err != nil {
		return nil, nil, err
	}
	srv.Handle(msgEcho, echoHandler(nil, 0))
	go srv.Run()
	return task, srv, nil
}

// probeRPCLocal: the echo call of rpc_cross_host with client and server
// on one host. Subtracted from the cross-host call, it leaves the relay.
func probeRPCLocal(pc probeConfig, out map[string]float64) error {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: pageSize})
	defer k.Shutdown()
	server, srv, err := startEcho(k)
	if err != nil {
		return err
	}
	defer srv.Stop()
	task := k.NewTask()
	svc, err := server.Space.CopySendRight(task.Space, srv.Port)
	if err != nil {
		return err
	}
	rc := mach.NewRPCClient(task.Space, svc, rpcTimeout)
	req := mach.NewEnc()
	payload := make([]byte, echoPayload)
	var v uint64
	us, allocs, err := timeLoop(pc.d, func() error {
		v++
		if ok, _ := echoCall(rc, req, v, payload); !ok {
			return errWrongEcho
		}
		return nil
	})
	out["rpc.local_call_us"], out["rpc.local_call_allocs"] = us, allocs
	return err
}

// probeCrossHost: on a two-host complex, the cost of one call inside a
// 16-call batch, and of a name lookup cold (answered by the name's home
// node) and cached.
func probeCrossHost(pc probeConfig, out map[string]float64) error {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 256, pageSize)
	defer kernels[0].Shutdown()
	defer kernels[1].Shutdown()
	server, srv, err := startEcho(kernels[0])
	if err != nil {
		return err
	}
	defer srv.Stop()
	names := make([]string, pc.n)
	for i := range names {
		names[i] = fmt.Sprintf("probe-echo-%d", i)
		if err := mach.NetMsgCheckIn(server, names[i], srv.Port); err != nil {
			return err
		}
	}
	task := kernels[1].NewTask()
	lookups := func() (float64, error) {
		start := time.Now()
		for _, name := range names {
			if _, err := mach.NetMsgLookUp(task, name); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(names)), nil
	}
	if out["netmsg.lookup_cold_us"], err = lookups(); err != nil {
		return err
	}
	if out["netmsg.lookup_cached_us"], err = lookups(); err != nil {
		return err
	}

	svc, err := mach.NetMsgLookUp(task, names[0])
	if err != nil {
		return err
	}
	rc := mach.NewRPCClient(task.Space, svc, rpcTimeout)
	req := mach.NewEnc()
	payload := make([]byte, echoPayload)
	batch := rc.NewBatch()
	var calls [16]*mach.RPCBatchCall
	us, _, err := timeLoop(pc.d, func() error {
		batch.Reset()
		for i := range calls {
			calls[i] = batch.Add(msgEcho, req.Reset().U64(uint64(i)).Bytes(payload))
		}
		if err := batch.Commit(); err != nil {
			return err
		}
		for i, c := range calls {
			if c.Err() != nil || c.Dec().U64() != uint64(i) {
				return errWrongEcho
			}
		}
		return nil
	})
	out["rpc.batch16_call_us"] = us / float64(len(calls))
	return err
}

// probeCodec: encoding the echo request and decoding it again.
func probeCodec(pc probeConfig, out map[string]float64) error {
	req := mach.NewEnc()
	payload := make([]byte, echoPayload)
	dec := mach.NewDec(nil)
	var v uint64
	us, _, err := timeLoop(pc.d, func() error {
		v++
		dec.Reset(req.Reset().U64(v).Bytes(payload).Payload())
		if dec.U64() != v || len(dec.Bytes()) != echoPayload {
			return errWrongEcho
		}
		return nil
	})
	out["rpc.codec_us"] = us
	return err
}

// probeVM: a zero-fill fault, a read of a resident page, and what a
// reused, re-dirtied out-of-line buffer leaves on the heap per send (vm
// does not collapse the shadow chain such a buffer grows).
func probeVM(pc probeConfig, out map[string]float64) error {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: pageSize})
	defer k.Shutdown()
	task := k.NewTask()
	const chunkPages = 64
	us, _, err := timeLoop(pc.d, func() error {
		addr, err := task.VMAllocate(0, chunkPages*pageSize, true)
		if err != nil {
			return err
		}
		if err := task.Map.Touch(addr, chunkPages*pageSize, mach.ProtWrite); err != nil {
			return err
		}
		return task.VMDeallocate(addr, chunkPages*pageSize)
	})
	if err != nil {
		return err
	}
	out["vm.zero_fill_fault_us"] = us / chunkPages

	addr, err := task.VMAllocate(0, pageSize, true)
	if err != nil {
		return err
	}
	if err := task.VMWrite(addr, make([]byte, pageSize)); err != nil {
		return err
	}
	if out["vm.resident_read_us"], _, err = timeLoop(pc.d, func() error {
		_, err := task.VMRead(addr, pageSize)
		return err
	}); err != nil {
		return err
	}

	receiver := k.NewTask()
	buf, err := task.VMAllocate(0, fileSize, true)
	if err != nil {
		return err
	}
	data := make([]byte, fileSize)
	before := liveHeapMB()
	for i := 0; i < pc.n; i++ {
		data[0] = byte(i)
		if err := task.VMWrite(buf, data); err != nil {
			return err
		}
		region, err := k.NewOOLRegion(task, buf, fileSize)
		if err != nil {
			return err
		}
		at, err := k.MapOOLRegion(receiver, region)
		if err != nil {
			return err
		}
		if err := receiver.VMDeallocate(at, fileSize); err != nil {
			return err
		}
	}
	out["vm.shadow_kb_per_resend"] = (liveHeapMB() - before) * 1024 / float64(pc.n)
	return nil
}

// probeOOL: a 64 KiB region from a buffer that is new each time, as
// file_rw's write path sends it: snapshot, send and receive; map on the
// same host; map on another host (a charged copy).
func probeOOL(pc probeConfig, out map[string]float64) error {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 8192, pageSize)
	defer kernels[0].Shutdown()
	defer kernels[1].Shutdown()
	k := kernels[0]
	sender, receiver, remote := k.NewTask(), k.NewTask(), kernels[1].NewTask()
	port, err := receiver.Space.AllocatePort()
	if err != nil {
		return err
	}
	name, err := receiver.Space.CopySendRight(sender.Space, port)
	if err != nil {
		return err
	}
	data := make([]byte, fileSize)
	var send, mapLocal, mapRemote time.Duration
	iters := 0
	for total := time.Duration(0); total < 2*pc.d; iters++ {
		begin := time.Now()
		for _, cross := range []bool{false, true} {
			buf, err := sender.VMAllocate(0, fileSize, true)
			if err != nil {
				return err
			}
			if err := sender.VMWrite(buf, data); err != nil {
				return err
			}
			t0 := time.Now()
			region, err := k.NewOOLRegion(sender, buf, fileSize)
			if err != nil {
				return err
			}
			m := mach.GetMessage()
			m.ID = 1
			m.RemotePort = name
			m.AppendSection(mach.CarryRegion(region))
			if err := sender.Send(m, mach.SendOptions{}); err != nil {
				return err
			}
			got, err := receiver.Receive(port, mach.ReceiveOptions{})
			if err != nil {
				return err
			}
			region = got.FirstRegion()
			t1 := time.Now()
			mapper, mk := receiver, k
			if cross {
				mapper, mk = remote, kernels[1]
			}
			at, err := mk.MapOOLRegion(mapper, region)
			t2 := time.Now()
			if err != nil {
				return err
			}
			got.Release()
			if cross {
				mapRemote += t2.Sub(t1)
			} else {
				send += t1.Sub(t0)
				mapLocal += t2.Sub(t1)
			}
			if err := mapper.VMDeallocate(at, fileSize); err != nil {
				return err
			}
			if err := sender.VMDeallocate(buf, fileSize); err != nil {
				return err
			}
		}
		total += time.Since(begin)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(iters) }
	out["kern.ool_send_us"], out["kern.ool_map_us"], out["kern.ool_cross_host_map_us"] = per(send), per(mapLocal), per(mapRemote)
	return nil
}

// constantPager answers every request with a page of zeroes: the
// cheapest external data manager there can be, so the fault's time is the
// protocol's.
type constantPager struct{ mach.NopHandler }

func (constantPager) DataRequest(mo *mach.MemoryObject, offset, length uint64, desired mach.Prot) {
	_ = mo.DataProvided(offset, make([]byte, length), mach.ProtNone) // a lost reply shows as a fault that never ends
}

func probeExternalFault(pc probeConfig, out map[string]float64) error {
	k := mach.NewKernel(mach.Config{Frames: 8192, PageSize: pageSize})
	defer k.Shutdown()
	task, mgrTask := k.NewTask(), k.NewTask()
	mgr := mach.NewManager(mgrTask.Space, constantPager{})
	mo, err := mgr.NewObject(nil)
	if err != nil {
		return err
	}
	go mgr.Run()
	defer mgr.Stop()
	name, err := mgrTask.Space.CopySendRight(task.Space, mo.Port)
	if err != nil {
		return err
	}
	const chunkPages = 64
	us, _, err := timeLoop(pc.d, func() error {
		addr, err := task.VMAllocateWithPager(name, 0, 0, chunkPages*pageSize, true)
		if err != nil {
			return err
		}
		if err := task.Map.Touch(addr, chunkPages*pageSize, mach.ProtRead); err != nil {
			return err
		}
		return task.VMDeallocate(addr, chunkPages*pageSize)
	})
	out["pager.external_fault_us"] = us / chunkPages
	return err
}

// probeIomgr: a 4 KiB write and an fsync on each backend. A backend this
// machine does not offer reports 0.
func probeIomgr(pc probeConfig, out map[string]float64) error {
	buf := make([]byte, pageSize)
	for _, backend := range []string{"pool", "uring"} {
		out["iomgr."+backend+"_write_us"], out["iomgr."+backend+"_fsync_us"] = 0, 0
		f, err := mach.IOOpen(filepath.Join(pc.dir, "probe-"+backend+".dat"), mach.IOOptions{Backend: backend, Create: true})
		if err != nil {
			if backend == "uring" {
				continue
			}
			return err
		}
		var write, fsync time.Duration
		iters := 0
		for ; write+fsync < pc.d; iters++ {
			t0 := time.Now()
			if _, err := f.SyncWriteAt(buf, int64(iters%256)*pageSize); err != nil {
				f.Close()
				return err
			}
			t1 := time.Now()
			if err := f.SyncFsync(); err != nil {
				f.Close()
				return err
			}
			write += t1.Sub(t0)
			fsync += time.Since(t1)
		}
		if err := f.Close(); err != nil {
			return err
		}
		out["iomgr."+backend+"_write_us"] = float64(write.Nanoseconds()) / 1e3 / float64(iters)
		out["iomgr."+backend+"_fsync_us"] = float64(fsync.Nanoseconds()) / 1e3 / float64(iters)
	}
	return nil
}

// uringAvailable reports whether this machine offers the io_uring backend.
func uringAvailable(dir string) bool {
	f, err := mach.IOOpen(filepath.Join(dir, "uring-check.dat"), mach.IOOptions{Backend: "uring", Create: true})
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// probeWAL: one record appended and forced, alone on the log — a commit
// without the rpc and the disk manager around it.
func probeWAL(pc probeConfig, out map[string]float64) error {
	wal, err := camelot.OpenWAL(filepath.Join(pc.dir, "probe.wal"), durableOptions.LogBlocks, durableOptions.LogBlockSize, ioPool)
	if err != nil {
		return err
	}
	var lsn uint64
	us, _, err := timeLoop(pc.d, func() error {
		lsn++
		wal.Append(lsn, make([]byte, durableOptions.LogBlockSize))
		return wal.Force(lsn)
	})
	out["camelot.wal_append_force_us"] = us
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeTimer: what opening and closing one span costs the traced client.
func probeTimer(pc probeConfig, out map[string]float64) error {
	tr := newTracer()
	tr.on.Store(true)
	c := &client{tr: tr, keep: true}
	us, _, err := timeLoop(pc.d, func() error {
		c.end(c.begin(spanOp))
		if len(c.spans) == 1<<16 {
			c.spans, c.calls = c.spans[:0], 0
		}
		return nil
	})
	out["bench.timer_overhead_ns"] = us * 1e3
	return err
}
