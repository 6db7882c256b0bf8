package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/mach"
)

// The four workloads. Their names are fixed: later issues name a metric
// and one of these. Each "why" says which layers the workload is for and
// which it leaves idle, so that an optimisation has one workload that
// exercises it and one that must not move.
var workloads = []workloadDef{
	{
		name:  "rpc_cross_host",
		why:   "small cross-host echo calls: per-message cost in ipc, rpc and the netmsg relay is all of the work; vm, pager, iomgr and camelot are idle",
		build: buildRPCCrossHost,
	},
	{
		name:  "file_rw",
		why:   "whole 64 KiB files move as copy-on-write memory through kern and are faulted in from the fs pager at 2x overcommit; netmsg, iomgr and camelot are idle",
		build: buildFileRW,
	},
	{
		name:  "paging_pressure",
		why:   "anonymous memory 16x kernel memory: vm fault, default-pager protocol, FramePool and iomgr, with warm and cold faults and write-back; rpc and netmsg are idle",
		build: buildPagingPressure,
	},
	{
		name:  "durable_commit",
		why:   "transactions of four logged writes and a forced commit: same-host rpc, the WAL and iomgr as append-and-fsync; the only workload where group commit can show",
		build: buildDurableCommit,
	},
}

const (
	pageSize    = 4096
	rpcTimeout  = 30 * time.Second
	echoPayload = 64
)

// ioPool opens every real file with the worker-pool backend: on a
// 2-vCPU VM the io_uring completion path is bimodal for one binary and
// seed (see README.md), which would measure vCPU wake-ups, not the
// program. io_uring is measured by probes instead.
var ioPool = mach.IOOptions{Backend: "pool"}

// mix is the checksum word of the page stamps: a value only the writer of
// (a, b, c) under this seed would put there.
func mix(seed int64, a, b, c uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB ^ c*0xD6E8FEB86659FD93
	x ^= x >> 31
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>29
}

// --- rpc_cross_host ----------------------------------------------------------

const msgEcho mach.MsgID = 9301

// echoHandler answers a U64 and a byte field with the same two. It is the
// benchmark's own handler, so it may carry a span: the request's U64 is
// the operation's ID under mask, which ties the span to its operation.
func echoHandler(tr *tracer, mask uint64) mach.RPCHandler {
	return func(m *mach.Message, d *mach.Dec) (*mach.RPCReply, error) {
		v := d.U64()
		op := v ^ mask
		var start int64
		keep := tr.keeps(op)
		if keep {
			start = tr.now()
		}
		b := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		r := mach.NewRPCReply()
		r.U64(v)
		r.Bytes(b)
		if keep {
			tr.sideSpan(span{op: op, parent: op<<spanIndexBits | 1, name: spanRPCHandler, start: start})
		}
		return r, nil
	}
}

// echoCall issues one echo call and checks the echoed value and bytes.
func echoCall(rc *mach.RPCClient, req *mach.Enc, v uint64, payload []byte) (ok, transport bool) {
	resp, err := rc.Invoke(msgEcho, req.Reset().U64(v).Bytes(payload))
	if err != nil {
		return false, true
	}
	gotV := resp.Dec.U64()
	gotB := resp.Dec.Bytes()
	ok = resp.Dec.Err() == nil && gotV == v && bytes.Equal(gotB, payload)
	resp.Release()
	return ok, false
}

func buildRPCCrossHost(cfg buildConfig) (*world, error) {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 256, pageSize)
	w := &world{
		clients: clientCount(2),
		kernels: kernels,
	}
	shutdown := func() {
		kernels[0].Shutdown()
		kernels[1].Shutdown()
	}
	mask := uint64(rand.New(rand.NewSource(cfg.seed)).Int63())
	server := kernels[0].NewTask()
	srv, err := mach.NewRPCServer(server.Space)
	if err != nil {
		shutdown()
		return nil, err
	}
	srv.Handle(msgEcho, echoHandler(cfg.tr, mask))
	go srv.Run()
	w.close = func() {
		srv.Stop()
		shutdown()
	}
	if err := mach.NetMsgCheckIn(server, "bench-echo", srv.Port); err != nil {
		w.close()
		return nil, err
	}
	type conn struct {
		rc      *mach.RPCClient
		req     *mach.Enc
		payload []byte
	}
	conns := make([]conn, w.clients)
	for i := range conns {
		task := kernels[1].NewTask()
		svc, err := mach.NetMsgLookUp(task, "bench-echo")
		if err != nil {
			w.close()
			return nil, err
		}
		conns[i] = conn{
			rc:      mach.NewRPCClient(task.Space, svc, rpcTimeout),
			req:     mach.NewEnc(),
			payload: make([]byte, echoPayload),
		}
	}
	w.op = func(c *client) bool {
		cn := &conns[c.id]
		c.rng.Read(cn.payload)
		s := c.begin(spanRPCInvoke)
		ok, transport := echoCall(cn.rc, cn.req, c.op^mask, cn.payload)
		c.end(s)
		if transport {
			w.rpcFailed.Add(1)
		}
		return ok
	}
	return w, nil
}

// --- file_rw -------------------------------------------------------------------

const (
	fileCount = 64
	filePages = 16
	fileSize  = filePages * pageSize
)

// stampFile writes the (file, page, version) stamp and its checksum word
// at the head of every page of buf; the rest of each page keeps the
// template's bytes.
func stampFile(seed int64, buf []byte, file, version uint64) {
	for p := uint64(0); p < filePages; p++ {
		h := buf[p*pageSize:]
		binary.LittleEndian.PutUint64(h[0:], file)
		binary.LittleEndian.PutUint64(h[8:], p)
		binary.LittleEndian.PutUint64(h[16:], version)
		binary.LittleEndian.PutUint64(h[24:], mix(seed, file, p, version))
	}
}

// checkFile verifies every page of a file read back: its stamp, its
// checksum word, and the template bytes at the end of the page.
func checkFile(seed int64, data, template []byte, file, version uint64) bool {
	if len(data) != fileSize {
		return false
	}
	for p := uint64(0); p < filePages; p++ {
		h := data[p*pageSize:]
		if binary.LittleEndian.Uint64(h[0:]) != file ||
			binary.LittleEndian.Uint64(h[8:]) != p ||
			binary.LittleEndian.Uint64(h[16:]) != version ||
			binary.LittleEndian.Uint64(h[24:]) != mix(seed, file, p, version) {
			return false
		}
		tail := (p+1)*pageSize - 64
		if !bytes.Equal(data[tail:tail+64], template[tail:tail+64]) {
			return false
		}
	}
	return true
}

func buildFileRW(cfg buildConfig) (*world, error) {
	k := mach.NewKernel(mach.Config{Frames: 512, PageSize: pageSize})
	// Twice the files' size: fs_write_file reuses a file's blocks, so
	// the disk never fills.
	disk := mach.NewDisk(2*fileCount*filePages, pageSize, mach.DefaultDiskLatency, k.Clock())
	fsrv, err := mach.NewFSServer(k, disk)
	if err != nil {
		k.Shutdown()
		return nil, err
	}
	go fsrv.Run()
	w := &world{
		clients: 1,
		kernels: []*mach.Kernel{k},
		disks:   []*mach.Disk{disk},
		close: func() {
			fsrv.Stop()
			k.Shutdown()
		},
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	template := make([]byte, fileSize)
	rng.Read(template)
	names := make([]string, fileCount)
	versions := make([]uint64, fileCount)
	buf := make([]byte, fileSize)
	copy(buf, template)
	for f := range names {
		names[f] = fmt.Sprintf("file%02d", f)
		versions[f] = 1
		stampFile(cfg.seed, buf, uint64(f), 1)
		if err := fsrv.CreateFile(names[f], buf); err != nil {
			w.close()
			return nil, err
		}
	}
	app := k.NewTask()
	svc, err := fsrv.Publish(app)
	if err != nil {
		w.close()
		return nil, err
	}
	w.op = func(c *client) bool {
		f := c.rng.Intn(fileCount)
		if c.rng.Intn(10) > 0 {
			s := c.begin(spanFSRead)
			addr, size, err := mach.FSReadFile(app, svc, names[f])
			c.end(s)
			if err != nil {
				w.rpcFailed.Add(1)
				return false
			}
			mapped := mach.FSMappedSize(app, size)
			w.oolBytes.Add(mapped)
			s = c.begin(spanVMRead)
			data, err := app.VMRead(addr, size)
			c.end(s)
			ok := err == nil && checkFile(cfg.seed, data, template, uint64(f), versions[f])
			s = c.begin(spanVMDealloc)
			err = app.VMDeallocate(addr, mapped)
			c.end(s)
			return ok && err == nil
		}
		// The write buffer is new client memory every time: a buffer
		// that is sent, dirtied and sent again grows a shadow chain
		// that vm never collapses, and the workload would slow down
		// as it runs (README.md, "reused buffer"). That is a probe.
		next := versions[f] + 1
		stampFile(cfg.seed, buf, uint64(f), next)
		s := c.begin(spanVMAlloc)
		addr, err := app.VMAllocate(0, fileSize, true)
		c.end(s)
		if err != nil {
			return false
		}
		s = c.begin(spanVMWrite)
		err = app.VMWrite(addr, buf)
		c.end(s)
		ok := err == nil
		if ok {
			s = c.begin(spanFSWrite)
			err = mach.FSWriteFile(app, svc, names[f], addr, fileSize)
			c.end(s)
			w.oolBytes.Add(fileSize)
			if err != nil {
				w.rpcFailed.Add(1)
				ok = false
			} else {
				versions[f] = next
			}
		}
		s = c.begin(spanVMDealloc)
		err = app.VMDeallocate(addr, fileSize)
		c.end(s)
		return ok && err == nil
	}
	return w, nil
}

// --- paging_pressure -------------------------------------------------------------

const (
	pagingKernelFrames = 64
	pagingPoolFrames   = 256
	pagingPages        = 1024
	pagingHotPages     = 192
)

func stampPage(seed int64, buf []byte, page, version uint64) {
	binary.LittleEndian.PutUint64(buf[0:], page)
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint64(buf[pageSize-8:], mix(seed, page, version, 0))
}

func checkPage(seed int64, data []byte, page, version uint64) bool {
	return len(data) == pageSize &&
		binary.LittleEndian.Uint64(data[0:]) == page &&
		binary.LittleEndian.Uint64(data[8:]) == version &&
		binary.LittleEndian.Uint64(data[pageSize-8:]) == mix(seed, page, version, 0)
}

// gatedStore is what lets the workload close its files. Kernel.Shutdown
// does not wait for the default pager's loop to finish the request it is
// serving, so a store call can still arrive after Shutdown has returned,
// and a FileVolume that is closed by then panics. shut waits for the call
// in flight and turns later ones into no-ops.
type gatedStore struct {
	mach.BlockStore
	mu     sync.RWMutex
	closed bool
}

func (g *gatedStore) Read(block int, dst []byte) {
	g.mu.RLock()
	if !g.closed {
		g.BlockStore.Read(block, dst)
	}
	g.mu.RUnlock()
}

func (g *gatedStore) Write(block int, src []byte) {
	g.mu.RLock()
	if !g.closed {
		g.BlockStore.Write(block, src)
	}
	g.mu.RUnlock()
}

func (g *gatedStore) shut() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

func buildPagingPressure(cfg buildConfig) (*world, error) {
	// The default pager keeps a block per page it has ever been handed,
	// shadow objects included; 4x the region is ample.
	vol, err := mach.OpenFileVolume(filepath.Join(cfg.dir, "paging.vol"), 4*pagingPages, pageSize, ioPool)
	if err != nil {
		return nil, err
	}
	// The traced run times the pool from both sides.
	var inner *timedStore
	var below mach.BlockStore = vol
	if cfg.tr != nil {
		inner = &timedStore{BlockStore: vol, tr: cfg.tr, read: spanVolumeRead, write: spanVolumeWrite}
		below = inner
	}
	pool := mach.NewFramePool(below, pagingPoolFrames)
	gate := &gatedStore{BlockStore: pool}
	if cfg.tr != nil {
		inner.outer = &timedStore{BlockStore: pool, tr: cfg.tr, read: spanPagerStoreRead, write: spanPagerStoreWrite}
		gate.BlockStore = inner.outer
	}
	k := mach.NewKernel(mach.Config{Frames: pagingKernelFrames, PageSize: pageSize, PagingStore: gate})
	w := &world{
		clients: 1,
		kernels: []*mach.Kernel{k},
		close: func() {
			k.Shutdown()
			gate.shut()
			pool.Close()
			_ = vol.Close() // only ever a scratch file
		},
	}
	task := k.NewTask()
	base, err := task.VMAllocate(0, pagingPages*pageSize, true)
	if err != nil {
		w.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	buf := make([]byte, pageSize)
	rng.Read(buf)
	versions := make([]uint64, pagingPages)
	for p := range versions {
		versions[p] = 1
		stampPage(cfg.seed, buf, uint64(p), 1)
		if err := task.VMWrite(base+uint64(p)*pageSize, buf); err != nil {
			w.close()
			return nil, err
		}
	}
	hot := rng.Perm(pagingPages)[:pagingHotPages]
	w.op = func(c *client) bool {
		p := c.rng.Intn(pagingPages)
		if c.rng.Intn(5) > 0 {
			p = hot[c.rng.Intn(pagingHotPages)]
		}
		addr := base + uint64(p)*pageSize
		if c.rng.Intn(10) < 7 {
			s := c.begin(spanVMRead)
			data, err := task.VMRead(addr, pageSize)
			c.end(s)
			return err == nil && checkPage(cfg.seed, data, uint64(p), versions[p])
		}
		stampPage(cfg.seed, buf, uint64(p), versions[p]+1)
		s := c.begin(spanVMWrite)
		err := task.VMWrite(addr, buf)
		c.end(s)
		if err != nil {
			return false
		}
		versions[p]++
		return true
	}
	return w, nil
}

// --- durable_commit ---------------------------------------------------------------

const (
	accounts        = 512
	writesPerCommit = 4
)

var durableOptions = mach.CamelotDurableOptions{
	DataBlocks: 256, LogBlocks: 1 << 21, LogBlockSize: 512, Frames: 16, IO: ioPool,
}

func buildDurableCommit(cfg buildConfig) (*world, error) {
	dir := filepath.Join(cfg.dir, "camelot")
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: pageSize})
	dm, err := mach.NewDurableCamelotDiskManager(k, dir, durableOptions)
	if err != nil {
		k.Shutdown()
		return nil, err
	}
	go dm.Run()
	w := &world{
		clients: clientCount(2),
		kernels: []*mach.Kernel{k},
	}
	var closeErr error
	w.close = sync.OnceFunc(func() {
		closeErr = dm.Close()
		k.Shutdown()
	})
	type account struct {
		cl     *mach.CamelotClient
		seg    *mach.CamelotSegment
		name   string
		shadow [accounts]uint64 // value of every acknowledged commit
	}
	accts := make([]*account, w.clients)
	for i := range accts {
		task := k.NewTask()
		svc, err := dm.Publish(task)
		if err != nil {
			w.close()
			return nil, err
		}
		a := &account{cl: mach.CamelotOpen(task, svc), name: fmt.Sprintf("accounts%d", i)}
		if err := a.cl.CreateSegment(a.name, pageSize); err != nil {
			w.close()
			return nil, err
		}
		if a.seg, err = a.cl.Attach(a.name); err != nil {
			w.close()
			return nil, err
		}
		accts[i] = a
	}
	w.op = func(c *client) bool {
		a := accts[c.id]
		var idx [writesPerCommit]int
		var val [writesPerCommit]uint64
		var word [8]byte
		tx := a.cl.Begin()
		for i := range idx {
			idx[i] = c.rng.Intn(accounts)
			val[i] = c.rng.Uint64()
			binary.LittleEndian.PutUint64(word[:], val[i])
			s := c.begin(spanCamelotWrite)
			err := tx.Write(a.seg, uint64(idx[i])*8, word[:])
			c.end(s)
			if err != nil {
				w.rpcFailed.Add(1)
				_ = tx.Abort() // the operation has already failed
				return false
			}
		}
		s := c.begin(spanCamelotCommit)
		err := tx.Commit()
		c.end(s)
		if err != nil {
			w.rpcFailed.Add(1)
			return false
		}
		for i := range idx {
			a.shadow[idx[i]] = val[i]
		}
		return true
	}
	// The oracle: close the manager, reopen the directory in a new
	// kernel — which replays the log — and compare every account with
	// the shadow of acknowledged commits.
	w.verify = func() (bool, error) {
		records := dm.WAL().Stats().Appends
		if w.close(); closeErr != nil {
			return false, fmt.Errorf("close before reopen: %w", closeErr)
		}
		k2 := mach.NewKernel(mach.Config{Frames: 256, PageSize: pageSize})
		defer k2.Shutdown()
		start := time.Now()
		dm2, err := mach.NewDurableCamelotDiskManager(k2, dir, durableOptions)
		if err != nil {
			return false, fmt.Errorf("reopen: %w", err)
		}
		defer dm2.Close()
		if records > 0 {
			w.recoveryUsPerRecord = float64(time.Since(start).Microseconds()) / float64(records)
		}
		ok := true
		for _, a := range accts {
			data, err := dm2.SegmentBytes(a.name)
			if err != nil {
				return false, fmt.Errorf("read back %s: %w", a.name, err)
			}
			for i := 0; i < accounts; i++ {
				if binary.LittleEndian.Uint64(data[i*8:]) != a.shadow[i] {
					ok = false
				}
			}
		}
		return ok, nil
	}
	return w, nil
}
