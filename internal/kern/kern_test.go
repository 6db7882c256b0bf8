package kern

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/pager"
	"repro/internal/vm"
)

const pgsz = 256

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	k := NewKernel(Config{Frames: 128, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	return k
}

// storePager is a memory-backed data manager used by the integration
// tests: a task-level pager speaking the full IPC protocol.
type storePager struct {
	pager.NopHandler
	mu     sync.Mutex
	store  map[uint64][]byte
	inits  int
	deaths int
	writes int
	reqs   int
}

func newStorePager() *storePager {
	return &storePager{store: map[uint64][]byte{}}
}

func (sp *storePager) seed(off uint64, b byte) {
	page := bytes.Repeat([]byte{b}, pgsz)
	sp.mu.Lock()
	sp.store[off] = page
	sp.mu.Unlock()
}

func (sp *storePager) PagerInit(mo *pager.MemoryObject) {
	sp.mu.Lock()
	sp.inits++
	sp.mu.Unlock()
}

func (sp *storePager) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	sp.mu.Lock()
	sp.reqs++
	data, ok := sp.store[offset]
	sp.mu.Unlock()
	if !ok {
		_ = mo.DataUnavailable(offset, pgsz)
		return
	}
	_ = mo.DataProvided(offset, data, vm.ProtNone)
}

func (sp *storePager) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	cp := append([]byte(nil), data...)
	sp.mu.Lock()
	sp.writes++
	sp.store[offset] = cp
	sp.mu.Unlock()
}

func (sp *storePager) PortDeath(mo *pager.MemoryObject) {
	sp.mu.Lock()
	sp.deaths++
	sp.mu.Unlock()
}

// startManager runs a storePager manager task on k and hands the client a
// send right to a fresh memory object, exactly as the paper's filesystem
// returns a memory object from fs_read_file.
func startManager(t *testing.T, k *Kernel, client *Task) (*storePager, *pager.Manager, ipc.Name) {
	t.Helper()
	mgrTask := k.NewTask()
	sp := newStorePager()
	mgr := pager.NewManager(mgrTask.Space, sp)
	mo, err := mgr.NewObject(nil)
	if err != nil {
		t.Fatal(err)
	}
	go mgr.Run()
	t.Cleanup(mgr.Stop)
	// Kernel-style capability handoff to the client.
	p, err := mgrTask.Space.Resolve(mo.Port)
	if err != nil {
		t.Fatal(err)
	}
	name, err := client.Space.InsertRight(p, ipc.SendRight)
	if err != nil {
		t.Fatal(err)
	}
	return sp, mgr, name
}

func TestExternalPagerEndToEnd(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()
	sp, _, moName := startManager(t, k, client)
	sp.seed(0, 0xA1)
	sp.seed(pgsz, 0xB2)

	addr, err := client.VMAllocateWithPager(moName, 0, 0, 4*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	// pager_init was sent before the call completed; the manager task
	// observes it asynchronously.
	initDeadline := time.Now().Add(2 * time.Second)
	for {
		sp.mu.Lock()
		inits := sp.inits
		sp.mu.Unlock()
		if inits == 1 {
			break
		}
		if time.Now().After(initDeadline) {
			t.Fatalf("inits %d, want 1", inits)
		}
		time.Sleep(time.Millisecond)
	}

	got, err := client.VMRead(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xA1 {
		t.Fatalf("page0 %x", got[0])
	}
	got, err = client.VMRead(addr+pgsz, 1)
	if err != nil || got[0] != 0xB2 {
		t.Fatalf("page1 %v %x", err, got)
	}
	// Unseeded page zero-fills via pager_data_unavailable.
	got, err = client.VMRead(addr+2*pgsz, 1)
	if err != nil || got[0] != 0 {
		t.Fatalf("page2 %v %v", err, got)
	}

	// Dirty a page, deallocate: terminate writes it back and kills the
	// request port -> manager sees the port death (§4.1).
	if err := client.VMWrite(addr, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := client.VMDeallocate(addr, 4*pgsz); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sp.mu.Lock()
		writes, deaths := sp.writes, sp.deaths
		stored := sp.store[0]
		sp.mu.Unlock()
		if writes >= 1 && deaths >= 1 && len(stored) > 0 && stored[0] == 0xEE {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminate flow incomplete: writes=%d deaths=%d", writes, deaths)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDefaultPagerEndToEnd(t *testing.T) {
	// Tiny memory forces anonymous pages through the real IPC default
	// pager path: pager_create, pager_data_write, pager_data_request.
	k := NewKernel(Config{Frames: 16, PageSize: pgsz})
	defer k.Shutdown()
	task := k.NewTask()
	const npages = 64
	addr, err := task.VMAllocate(0, npages*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pgsz)
	for i := 0; i < npages; i++ {
		for j := range page {
			page[j] = byte(i + 1)
		}
		if err := task.VMWrite(addr+uint64(i)*pgsz, page); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < npages; i++ {
		got, err := task.VMRead(addr+uint64(i)*pgsz, pgsz)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != byte(i+1) {
				t.Fatalf("page %d byte %d = %d", i, j, got[j])
			}
		}
	}
	if k.DefaultPager().BackingPages() == 0 {
		t.Fatal("default pager holds no pages despite pressure")
	}
	st := k.Statistics()
	if st.Pageouts == 0 || st.Pageins == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOOLMessageTransferCOW(t *testing.T) {
	k := newTestKernel(t)
	sender := k.NewTask()
	receiver := k.NewTask()

	// Receiver's service port, send right handed to sender.
	svc, _ := receiver.Space.AllocatePort()
	p, _ := receiver.Space.Resolve(svc)
	sName, _ := sender.Space.InsertRight(p, ipc.SendRight)

	const size = 16 * pgsz
	addr, _ := sender.VMAllocate(0, size, true)
	payload := bytes.Repeat([]byte{0xC3}, size)
	sender.VMWrite(addr, payload)

	cowBefore := k.Statistics().CowFaults
	region, err := k.NewOOLRegion(sender, addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(&ipc.Message{
		ID:         77,
		RemotePort: sName,
		Sections:   []ipc.Section{ipc.CarryRegion(region)},
	}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}

	msg, err := receiver.Receive(svc, ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := k.MapOOLRegion(receiver, msg.FirstRegion())
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.VMRead(raddr, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("OOL payload mismatch")
	}
	// The whole transfer + read moved zero pages by copy.
	if got := k.Statistics().CowFaults; got != cowBefore {
		t.Fatalf("COW faults during OOL transfer: %d", got-cowBefore)
	}
	// Sender writes after send don't affect receiver (snapshot at send).
	sender.VMWrite(addr, []byte{0x00})
	rb, _ := receiver.VMRead(raddr, 1)
	if rb[0] != 0xC3 {
		t.Fatal("sender write leaked into received region")
	}
	// Receiver write copies one page, invisible to sender.
	receiver.VMWrite(raddr+pgsz, []byte{0x11})
	sb, _ := sender.VMRead(addr+pgsz, 1)
	if sb[0] != 0xC3 {
		t.Fatal("receiver write leaked into sender region")
	}
}

func TestOOLRegionDoubleMapFails(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	addr, _ := task.VMAllocate(0, pgsz, true)
	region, err := k.NewOOLRegion(task, addr, pgsz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MapOOLRegion(task, region); err != nil {
		t.Fatal(err)
	}
	if _, err := k.MapOOLRegion(task, region); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestCrossKernelPaging(t *testing.T) {
	// Manager on host 0, client kernel on host 1 (NUMA complex): each
	// kernel gets its own pager_init with distinct request ports.
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NUMA), clock)
	k0 := NewKernel(Config{Host: 0, Frames: 128, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k0.Shutdown()
	k1 := NewKernel(Config{Host: 1, Frames: 128, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k1.Shutdown()

	mgrTask := k0.NewTask()
	sp := newStorePager()
	mgr := pager.NewManager(mgrTask.Space, sp)
	mo, _ := mgr.NewObject(nil)
	go mgr.Run()
	defer mgr.Stop()
	sp.seed(0, 0x42)

	c0 := k0.NewTask()
	c1 := k1.NewTask()
	p, _ := mgrTask.Space.Resolve(mo.Port)
	n0, _ := c0.Space.InsertRight(p, ipc.SendRight)
	n1, _ := c1.Space.InsertRight(p, ipc.SendRight)

	a0, err := c0.VMAllocateWithPager(n0, 0, 0, pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := c1.VMAllocateWithPager(n1, 0, 0, pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	// One init per kernel.
	deadline := time.Now().Add(time.Second)
	for {
		sp.mu.Lock()
		inits := sp.inits
		sp.mu.Unlock()
		if inits == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inits %d, want 2", inits)
		}
		time.Sleep(time.Millisecond)
	}
	b0, err := c0.VMRead(a0, 1)
	if err != nil || b0[0] != 0x42 {
		t.Fatalf("host0 read %v %v", err, b0)
	}
	b1, err := c1.VMRead(a1, 1)
	if err != nil || b1[0] != 0x42 {
		t.Fatalf("host1 read %v %v", err, b1)
	}
	// The remote client's paging crossed the interconnect.
	if topo.Stats().RemoteMessages == 0 {
		t.Fatal("no remote messages for cross-kernel paging")
	}
}

func TestForkInheritanceAcrossTasks(t *testing.T) {
	k := newTestKernel(t)
	parent := k.NewTask()
	shared, _ := parent.VMAllocate(0, pgsz, true)
	parent.VMInherit(shared, pgsz, vm.InheritShare)
	private, _ := parent.VMAllocate(0, pgsz, true)
	none, _ := parent.VMAllocate(0, pgsz, true)
	parent.VMInherit(none, pgsz, vm.InheritNone)

	parent.VMWrite(shared, []byte{1})
	parent.VMWrite(private, []byte{2})

	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Shared: child write visible to parent.
	child.VMWrite(shared, []byte{9})
	b, _ := parent.VMRead(shared, 1)
	if b[0] != 9 {
		t.Fatalf("shared not shared: %v", b)
	}
	// Copy: isolated.
	child.VMWrite(private, []byte{8})
	b, _ = parent.VMRead(private, 1)
	if b[0] != 2 {
		t.Fatalf("copy not isolated: %v", b)
	}
	// None: invalid in child.
	if _, err := child.VMRead(none, 1); err == nil {
		t.Fatal("inherit-none region valid in child")
	}
	if child.ID == parent.ID {
		t.Fatal("task IDs collide")
	}
}

func TestThreadSuspendResume(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	var progress int
	var mu sync.Mutex
	started := make(chan struct{})
	th, err := task.SpawnThread(func(th *Thread) {
		close(started)
		for i := 0; i < 100; i++ {
			th.Preempt()
			mu.Lock()
			progress++
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	time.Sleep(5 * time.Millisecond)
	th.Suspend()
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	frozen := progress
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	after := progress
	mu.Unlock()
	if after > frozen+1 {
		t.Fatalf("thread progressed while suspended: %d -> %d", frozen, after)
	}
	th.Resume()
	th.Join()
	mu.Lock()
	final := progress
	mu.Unlock()
	if final != 100 {
		t.Fatalf("thread finished at %d", final)
	}
}

func TestTaskTerminateNotifiesPeers(t *testing.T) {
	k := newTestKernel(t)
	server := k.NewTask()
	clientTask := k.NewTask()
	svc, _ := server.Space.AllocatePort()
	p, _ := server.Space.Resolve(svc)
	clientTask.Space.InsertRight(p, ipc.SendRight)
	server.Terminate()
	m, err := clientTask.Receive(clientTask.Space.NotifyPort(), ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil || m.ID != ipc.MsgIDPortDeleted {
		t.Fatalf("peer not notified: %v %+v", err, m)
	}
	if !server.Dead() {
		t.Fatal("server not dead")
	}
	if _, err := server.Fork(); err != ErrTaskDead {
		t.Fatalf("fork of dead task: %v", err)
	}
}

func TestManagerFlushViaIPC(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()

	mgrTask := k.NewTask()
	sp := newStorePager()
	mgr := pager.NewManager(mgrTask.Space, sp)
	mo, _ := mgr.NewObject(nil)
	go mgr.Run()
	defer mgr.Stop()
	sp.seed(0, 0x10)

	p, _ := mgrTask.Space.Resolve(mo.Port)
	name, _ := client.Space.InsertRight(p, ipc.SendRight)
	addr, err := client.VMAllocateWithPager(name, 0, 0, pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.VMWrite(addr, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	// Manager forces a flush through the request port.
	if err := mo.FlushRequest(0, pgsz); err != nil {
		t.Fatal(err)
	}
	// The dirty data must arrive at the manager.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sp.mu.Lock()
		data := sp.store[0]
		sp.mu.Unlock()
		if len(data) > 0 && data[0] == 0x77 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush write-back never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// Next read re-requests from the manager.
	sp.mu.Lock()
	before := sp.reqs
	sp.mu.Unlock()
	b, err := client.VMRead(addr, 1)
	if err != nil || b[0] != 0x77 {
		t.Fatalf("read after flush: %v %v", err, b)
	}
	sp.mu.Lock()
	after := sp.reqs
	sp.mu.Unlock()
	if after != before+1 {
		t.Fatalf("flush did not invalidate (reqs %d -> %d)", before, after)
	}
}

func TestOOLCrossHostEagerAndCOR(t *testing.T) {
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
	k0 := NewKernel(Config{Host: 0, Frames: 256, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k0.Shutdown()
	k1 := NewKernel(Config{Host: 1, Frames: 256, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k1.Shutdown()
	sender := k0.NewTask()
	receiver := k1.NewTask()
	svc, _ := receiver.Space.AllocatePort()
	p, _ := receiver.Space.Resolve(svc)
	sName, _ := sender.Space.InsertRight(p, ipc.SendRight)

	const size = 16 * pgsz
	addr, _ := sender.VMAllocate(0, size, true)
	payload := bytes.Repeat([]byte{0xAB}, size)
	sender.VMWrite(addr, payload)

	// Eager cross-host map: all bytes cross at map time.
	region, err := k0.NewOOLRegion(sender, addr, size)
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&ipc.Message{ID: 1, RemotePort: sName, Sections: []ipc.Section{ipc.CarryRegion(region)}}, ipc.SendOptions{})
	m, _ := receiver.Receive(svc, ipc.ReceiveOptions{Timeout: time.Second})
	topo.ResetStats()
	raddr, err := k1.MapOOLRegion(receiver, m.FirstRegion())
	if err != nil {
		t.Fatal(err)
	}
	if rb := topo.Stats().RemoteBytes; rb < size {
		t.Fatalf("eager map moved %d bytes, want >= %d", rb, size)
	}
	got, _ := receiver.VMRead(raddr, size)
	if !bytes.Equal(got, payload) {
		t.Fatal("eager payload mismatch")
	}

	// Copy-on-reference map: nothing crosses until touched.
	region2, err := k0.NewOOLRegion(sender, addr, size)
	if err != nil {
		t.Fatal(err)
	}
	sender.Send(&ipc.Message{ID: 2, RemotePort: sName, Sections: []ipc.Section{ipc.CarryRegion(region2)}}, ipc.SendOptions{})
	m2, _ := receiver.Receive(svc, ipc.ReceiveOptions{Timeout: time.Second})
	topo.ResetStats()
	raddr2, err := k1.MapOOLRegionCOR(receiver, m2.FirstRegion())
	if err != nil {
		t.Fatal(err)
	}
	if rb := topo.Stats().RemoteBytes; rb > pgsz {
		t.Fatalf("COR map moved %d bytes before any touch", rb)
	}
	// Touch 2 of 16 pages: only those cross.
	b, err := receiver.VMRead(raddr2, 1)
	if err != nil || b[0] != 0xAB {
		t.Fatalf("COR page 0: %v %v", err, b)
	}
	receiver.VMRead(raddr2+8*pgsz, 1)
	if rb := topo.Stats().RemoteBytes; rb > 4*pgsz {
		t.Fatalf("COR moved %d bytes for 2 pages", rb)
	}
	// Receiver writes stay private to its mapping (COW against the
	// transit object).
	receiver.VMWrite(raddr2, []byte{0x01})
	sb, _ := sender.VMRead(addr, 1)
	if sb[0] != 0xAB {
		t.Fatal("COR write leaked to sender")
	}
	// Unmapping tears the transit pager down.
	if err := receiver.VMDeallocate(raddr2, size); err != nil {
		t.Fatal(err)
	}
}

func TestTaskPortRemoteOperations(t *testing.T) {
	// A "debugger" on host 1 manipulates a task on host 0 purely by
	// sending messages to its task port (§3.2's location independence).
	clock := machine.NewClock()
	topo := machine.NewTopology(machine.ModelFor(machine.NORMA), clock)
	k0 := NewKernel(Config{Host: 0, Frames: 128, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k0.Shutdown()
	k1 := NewKernel(Config{Host: 1, Frames: 128, PageSize: pgsz, Clock: clock, Topo: topo})
	defer k1.Shutdown()

	victim := k0.NewTask()
	addr, _ := victim.VMAllocate(0, pgsz, true)
	victim.VMWrite(addr, []byte("peek me"))

	debugger := k1.NewTask()
	tp := k0.TaskPort(victim)
	name, err := debugger.Space.InsertRight(tp, ipc.SendRight)
	if err != nil {
		t.Fatal(err)
	}

	// Remote vm_read.
	got, err := TaskVMReadRPC(debugger, name, addr, 7)
	if err != nil || string(got) != "peek me" {
		t.Fatalf("remote read %q %v", got, err)
	}
	// Remote vm_write.
	if err := TaskVMWriteRPC(debugger, name, addr, []byte("POKED")); err != nil {
		t.Fatal(err)
	}
	b, _ := victim.VMRead(addr, 5)
	if string(b) != "POKED" {
		t.Fatalf("victim sees %q", b)
	}
	// Out-of-range read fails cleanly.
	if _, err := TaskVMReadRPC(debugger, name, 0x2, 4); err == nil {
		t.Fatal("invalid remote read succeeded")
	}
	// Remote suspend gates the victim's threads.
	var progressed int
	var pmu sync.Mutex
	started := make(chan struct{})
	th, _ := victim.SpawnThread(func(self *Thread) {
		close(started)
		for i := 0; i < 60; i++ {
			self.Preempt()
			pmu.Lock()
			progressed++
			pmu.Unlock()
			time.Sleep(time.Millisecond)
		}
	})
	<-started
	if err := TaskSuspendRPC(debugger, name); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	pmu.Lock()
	frozen := progressed
	pmu.Unlock()
	time.Sleep(20 * time.Millisecond)
	pmu.Lock()
	after := progressed
	pmu.Unlock()
	if after > frozen+1 {
		t.Fatalf("task progressed while remotely suspended: %d -> %d", frozen, after)
	}
	if err := TaskResumeRPC(debugger, name); err != nil {
		t.Fatal(err)
	}
	// Remote terminate.
	if err := TaskTerminateRPC(debugger, name); err != nil {
		t.Fatal(err)
	}
	if !victim.Dead() {
		t.Fatal("victim survived remote terminate")
	}
	th.Join()
}

func TestDiscardOOLRegionReleasesTransit(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	addr, _ := task.VMAllocate(0, 4*pgsz, true)
	task.VMWrite(addr, []byte{1})
	region, err := k.NewOOLRegion(task, addr, 4*pgsz)
	if err != nil {
		t.Fatal(err)
	}
	if region.Size() != 4*pgsz {
		t.Fatalf("region size %d", region.Size())
	}
	k.DiscardOOLRegion(region)
	// A discarded region cannot be mapped.
	if _, err := k.MapOOLRegion(task, region); err == nil {
		t.Fatal("mapped a discarded region")
	}
	// The transit map is empty again.
	if n := len(k.transit.Regions()); n != 0 {
		t.Fatalf("transit still holds %d regions", n)
	}
}

func TestKernelStatisticsAggregate(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	addr, _ := task.VMAllocate(0, 4*pgsz, true)
	task.Map.Touch(addr, 4*pgsz, vm.ProtWrite)
	st := k.Statistics()
	if st.ZeroFills < 4 || st.Faults < 4 || st.PageSize != pgsz {
		t.Fatalf("stats %+v", st)
	}
	if st.FreeCount <= 0 || st.FreeCount > 128 {
		t.Fatalf("free count %d", st.FreeCount)
	}
}

// A manager written before requests were ranged — storePager answers the
// first page of whatever it is asked — still serves a multi-page read,
// one round trip per page.
func TestFirstPageOnlyManagerServesMultiPageRead(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()
	sp, _, moName := startManager(t, k, client)
	const pages = 6
	for i := 0; i < pages; i++ {
		sp.seed(uint64(i)*pgsz, byte(0x10+i))
	}
	addr, err := client.VMAllocateWithPager(moName, 0, 0, pages*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.VMRead(addr, pages*pgsz)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if !bytes.Equal(got[i*pgsz:(i+1)*pgsz], bytes.Repeat([]byte{byte(0x10 + i)}, pgsz)) {
			t.Fatalf("page %d holds %x", i, got[i*pgsz])
		}
	}
	sp.mu.Lock()
	reqs := sp.reqs
	sp.mu.Unlock()
	if reqs != pages {
		t.Fatalf("requests %d, want one per page (%d)", reqs, pages)
	}
}

// One-page accesses to paged-out anonymous memory read one block each:
// the range of a request is the access, so there is no read-ahead.
func TestDefaultPagerSinglePageAccessesReadOnePage(t *testing.T) {
	k := NewKernel(Config{Frames: 16, PageSize: pgsz})
	defer k.Shutdown()
	task := k.NewTask()
	const npages = 64
	addr, err := task.VMAllocate(0, npages*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < npages; i++ {
		if err := task.VMWrite(addr+uint64(i)*pgsz, bytes.Repeat([]byte{byte(i + 1)}, pgsz)); err != nil {
			t.Fatal(err)
		}
	}
	reads0, pageins0 := k.DefaultPager().Counters().Reads, k.Statistics().Pageins
	touched := int64(0)
	for i := 0; i < 40; i += 4 {
		got, err := task.VMRead(addr+uint64(i)*pgsz, pgsz)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) || got[pgsz-1] != byte(i+1) {
			t.Fatalf("page %d holds %d", i, got[0])
		}
		touched++
	}
	reads, pageins := k.DefaultPager().Counters().Reads-reads0, k.Statistics().Pageins-pageins0
	if reads != pageins || reads == 0 || reads > touched {
		t.Fatalf("%d pages touched: %d store reads, %d page-ins; want equal and no more than touched", touched, reads, pageins)
	}
}

// gatedHandler holds pager_data_requests at the manager's door until the
// test opens it, so a test can get a second fault in before the first is
// answered.
type gatedHandler struct {
	pager.Handler
	arrived chan uint64   // the offset of each request, as it arrives
	open    chan struct{} // closed to let requests through
}

func (g *gatedHandler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	g.arrived <- offset
	<-g.open
	g.Handler.DataRequest(mo, offset, length, desired)
}

// The answer to a ranged request must not speak for pages it did not look
// at. The default pager holds pages 0, 1 and 3 of a sparse object; one
// thread reads the whole of it (a request for 4 pages, which page 2 cuts
// short) while another waits for page 3 alone. The second thread's page
// is inside the first one's hint, and it must get its data, not the
// zeroes of a pager_data_unavailable that named the rest of the range.
func TestRangedAnswerLeavesHeldPagesToTheirOwnFaults(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()
	mgrTask := k.NewTask()
	dp := pager.NewDefaultPager(machine.NewDisk(64, pgsz, 0, nil))
	gate := &gatedHandler{Handler: dp, arrived: make(chan uint64, 8), open: make(chan struct{})}
	mgr := pager.NewManager(mgrTask.Space, gate)
	mo, err := mgr.NewObject(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{0, 1, 3} {
		dp.DataWrite(mo, p*pgsz, bytes.Repeat([]byte{byte(0xA0 + p)}, pgsz))
	}
	go mgr.Run()
	t.Cleanup(mgr.Stop)
	port, err := mgrTask.Space.Resolve(mo.Port)
	if err != nil {
		t.Fatal(err)
	}
	moName, err := client.Space.InsertRight(port, ipc.SendRight)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := client.VMAllocateWithPager(moName, 0, 0, 4*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}

	read := func(off, size uint64) chan []byte {
		out := make(chan []byte, 1)
		go func() {
			got, err := client.VMRead(addr+off, size)
			if err != nil {
				t.Error(err)
			}
			out <- got
		}()
		return out
	}
	faults0 := k.Statistics().Faults
	whole := read(0, 4*pgsz)
	if off := <-gate.arrived; off != 0 {
		t.Fatalf("first request at %d, want 0", off)
	}
	// The 4-page request is held at the manager. Page 3 is now faulted on
	// its own: once the fault is counted its placeholder is in, and its
	// request queues behind the one being held.
	last := read(3*pgsz, pgsz)
	for deadline := time.Now().Add(5 * time.Second); k.Statistics().Faults < faults0+2; {
		if time.Now().After(deadline) {
			t.Fatal("the second fault never happened")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.open)

	if got := <-last; len(got) != pgsz || got[0] != 0xA3 || got[pgsz-1] != 0xA3 {
		t.Fatalf("page 3 read alone holds %x, want a3", got[:1])
	}
	want := bytes.Join([][]byte{
		bytes.Repeat([]byte{0xA0}, pgsz), bytes.Repeat([]byte{0xA1}, pgsz),
		make([]byte, pgsz), bytes.Repeat([]byte{0xA3}, pgsz),
	}, nil)
	if got := <-whole; !bytes.Equal(got, want) {
		t.Fatalf("whole read holds %x %x %x %x, want a0 a1 00 a3", got[0], got[pgsz], got[2*pgsz], got[3*pgsz])
	}
}
