package kern

// E1 conformance: one test per interface table of the paper, exercising
// every listed call by its Mach name. Run with: go test -run 'Table' ./...

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ipc"
	"repro/internal/pager"
	"repro/internal/vm"
)

// TestTable31MessagePrimitives: msg_send, msg_receive, msg_rpc.
func TestTable31MessagePrimitives(t *testing.T) {
	k := newTestKernel(t)
	server := k.NewTask()
	client := k.NewTask()
	svc, _ := server.Space.AllocatePort()
	p, _ := server.Space.Resolve(svc)
	name, _ := client.Space.InsertRight(p, ipc.SendRight)

	// msg_send(message, option, timeout)
	if err := client.Send(&ipc.Message{ID: 1, RemotePort: name,
		Sections: []ipc.Section{ipc.InlineBytes([]byte("send"))}},
		ipc.SendOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("msg_send: %v", err)
	}
	// msg_receive(message, option, timeout)
	m, err := server.Receive(svc, ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil || string(m.InlineData()) != "send" {
		t.Fatalf("msg_receive: %v %q", err, m.InlineData())
	}
	// msg_rpc(message, option, rcv_size, send_timeout, receive_timeout)
	go func() {
		req, err := server.Receive(svc, ipc.ReceiveOptions{Timeout: time.Second})
		if err != nil {
			return
		}
		_ = server.Send(&ipc.Message{ID: req.ID + 1, RemotePort: req.RemotePort}, ipc.SendOptions{})
	}()
	reply, err := client.RPC(&ipc.Message{ID: 10, RemotePort: name}, time.Second, time.Second)
	if err != nil || reply.ID != 11 {
		t.Fatalf("msg_rpc: %v %+v", err, reply)
	}
}

// TestTable32PortOperations: port_allocate, port_deallocate, port_status,
// port_set_backlog, and the port-set calls that replaced port_enable,
// port_disable and port_messages in Mach's later interface.
func TestTable32PortOperations(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	// port_allocate(task, port)
	port, err := task.Space.AllocatePort()
	if err != nil {
		t.Fatalf("port_allocate: %v", err)
	}
	// port_set_backlog(task, port, backlog)
	if err := task.Space.SetBacklog(port, 3); err != nil {
		t.Fatalf("port_set_backlog: %v", err)
	}
	// port_set_allocate + port_set_add: the receive point for many ports.
	set, err := task.Space.AllocatePortSet()
	if err != nil {
		t.Fatalf("port_set_allocate: %v", err)
	}
	if err := task.Space.MoveToPortSet(set, port); err != nil {
		t.Fatalf("port_set_add: %v", err)
	}
	if got, err := task.Space.PortSetMembers(set); err != nil || len(got) != 1 || got[0] != port {
		t.Fatalf("port_set_status: %v %v", got, err)
	}
	_ = task.Send(&ipc.Message{RemotePort: port}, ipc.SendOptions{})
	// port_status(task, port, ...)
	st, err := task.Space.Status(port)
	if err != nil || !st.HasReceive || st.NumMsgs != 1 || st.Backlog != 3 {
		t.Fatalf("port_status: %+v %v", st, err)
	}
	if m, err := task.Receive(set, ipc.ReceiveOptions{NonBlocking: true}); err != nil || m.LocalPort != port {
		t.Fatalf("receive on set: %v %+v", err, m)
	}
	// port_set_remove: the port is back on direct receive.
	if err := task.Space.RemoveFromPortSet(set, port); err != nil {
		t.Fatalf("port_set_remove: %v", err)
	}
	if _, err := task.Receive(port, ipc.ReceiveOptions{NonBlocking: true}); err != ipc.ErrWouldBlock {
		t.Fatalf("direct receive after port_set_remove: %v", err)
	}
	// port_deallocate(task, port)
	if err := task.Space.DeallocatePort(port); err != nil {
		t.Fatalf("port_deallocate: %v", err)
	}
	if _, err := task.Space.Status(port); err != ipc.ErrInvalidPort {
		t.Fatalf("status after deallocate: %v", err)
	}
}

// TestTable33VMOperations: vm_allocate, vm_deallocate, vm_inherit,
// vm_protect, vm_read, vm_write, vm_copy, vm_regions, vm_statistics.
func TestTable33VMOperations(t *testing.T) {
	k := newTestKernel(t)
	task := k.NewTask()
	// vm_allocate(task, address, size, anywhere)
	addr, err := task.VMAllocate(0, 4*pgsz, true)
	if err != nil {
		t.Fatalf("vm_allocate: %v", err)
	}
	// vm_write(task, address, count, data, data_count)
	if err := task.VMWrite(addr, []byte("table 3-3")); err != nil {
		t.Fatalf("vm_write: %v", err)
	}
	// vm_read(task, address, size, data, data_count)
	got, err := task.VMRead(addr, 9)
	if err != nil || string(got) != "table 3-3" {
		t.Fatalf("vm_read: %q %v", got, err)
	}
	// vm_copy(task, src_addr, count, dst_addr)
	dst, _ := task.VMAllocate(0, pgsz, true)
	if err := task.VMCopy(addr, 9, dst); err != nil {
		t.Fatalf("vm_copy: %v", err)
	}
	got, _ = task.VMRead(dst, 9)
	if string(got) != "table 3-3" {
		t.Fatalf("vm_copy content: %q", got)
	}
	// vm_inherit(task, address, size, inheritance)
	if err := task.VMInherit(addr, pgsz, vm.InheritShare); err != nil {
		t.Fatalf("vm_inherit: %v", err)
	}
	// vm_protect(task, address, size, set_max, protection)
	if err := task.VMProtect(dst, pgsz, false, vm.ProtRead); err != nil {
		t.Fatalf("vm_protect: %v", err)
	}
	if err := task.VMWrite(dst, []byte{1}); err != vm.ErrProtection {
		t.Fatalf("write after vm_protect: %v", err)
	}
	// vm_regions(task, ...): the sub-range vm_inherit clipped the first
	// allocation into two entries, plus the vm_copy destination = 3.
	regions := task.VMRegions()
	if len(regions) != 3 {
		t.Fatalf("vm_regions: %+v", regions)
	}
	if regions[0].Inherit != vm.InheritShare {
		t.Fatal("vm_regions lost inheritance attribute")
	}
	if regions[2].Prot != vm.ProtRead {
		t.Fatal("vm_regions lost protection attribute")
	}
	// vm_statistics(task, vm_stats)
	st := k.Statistics()
	if st.Faults == 0 || st.PageSize != pgsz {
		t.Fatalf("vm_statistics: %+v", st)
	}
	// vm_deallocate(task, address, size)
	if err := task.VMDeallocate(addr, 4*pgsz); err != nil {
		t.Fatalf("vm_deallocate: %v", err)
	}
	if _, err := task.VMRead(addr, 1); err != vm.ErrInvalidAddress {
		t.Fatalf("read after vm_deallocate: %v", err)
	}
}

// TestTable34AllocateWithPager: vm_allocate_with_pager(task, address,
// size, anywhere, memory_object, offset).
func TestTable34AllocateWithPager(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()
	sp, _, moName := startManager(t, k, client)
	sp.seed(pgsz, 0x34)
	// Map at a non-zero object offset.
	addr, err := client.VMAllocateWithPager(moName, pgsz, 0, pgsz, true)
	if err != nil {
		t.Fatalf("vm_allocate_with_pager: %v", err)
	}
	b, err := client.VMRead(addr, 1)
	if err != nil || b[0] != 0x34 {
		t.Fatalf("offset mapping read: %v %v", b, err)
	}
}

// TestTable35KernelToDataManager: pager_init, pager_data_request,
// pager_data_write, pager_data_unlock, pager_create.
func TestTable35KernelToDataManager(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()

	mgrTask := k.NewTask()
	calls := make(chan string, 32)
	h := &tableHandler{calls: calls}
	mgr := pager.NewManager(mgrTask.Space, h)
	mo, _ := mgr.NewObject(nil)
	go mgr.Run()
	t.Cleanup(mgr.Stop)
	p, _ := mgrTask.Space.Resolve(mo.Port)
	name, _ := client.Space.InsertRight(p, ipc.SendRight)

	addr, err := client.VMAllocateWithPager(name, 0, 0, pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-calls:
			if got != want {
				t.Fatalf("call %q, want %q", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no %q call", want)
		}
	}
	expect("pager_init")
	// Read fault -> pager_data_request (answered read-only).
	if _, err := client.VMRead(addr, 1); err != nil {
		t.Fatal(err)
	}
	expect("pager_data_request")
	// Write on the read-only page -> pager_data_unlock (granted).
	if err := client.VMWrite(addr, []byte{9}); err != nil {
		t.Fatal(err)
	}
	expect("pager_data_unlock")
	// Deallocate -> terminate writes the dirty page back:
	// pager_data_write.
	if err := client.VMDeallocate(addr, pgsz); err != nil {
		t.Fatal(err)
	}
	expect("pager_data_write")

	// pager_create: anonymous memory evicted under pressure reaches
	// the default pager (verified via its backing-store growth).
	k2 := NewKernel(Config{Frames: 16, PageSize: pgsz})
	defer k2.Shutdown()
	t2 := k2.NewTask()
	a2, _ := t2.VMAllocate(0, 64*pgsz, true)
	page := make([]byte, pgsz)
	for i := 0; i < 64; i++ {
		_ = t2.VMWrite(a2+uint64(i)*pgsz, page)
	}
	deadline := time.Now().Add(2 * time.Second)
	for k2.DefaultPager().BackingPages() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pager_create flow never reached the default pager")
		}
		time.Sleep(time.Millisecond)
	}
}

// tableHandler answers requests read-locked and grants unlocks, recording
// the kernel-to-manager call names.
type tableHandler struct {
	pager.NopHandler
	calls chan string
}

func (h *tableHandler) PagerInit(mo *pager.MemoryObject) { h.calls <- "pager_init" }
func (h *tableHandler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	h.calls <- "pager_data_request"
	_ = mo.DataProvided(offset, make([]byte, length), vm.ProtWrite)
}
func (h *tableHandler) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	h.calls <- "pager_data_unlock"
	_ = mo.DataLock(offset, length, vm.ProtNone)
}
func (h *tableHandler) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	h.calls <- "pager_data_write"
}

// TestTable36DataManagerToKernel: pager_data_provided, pager_data_lock,
// pager_flush_request, pager_clean_request, pager_cache,
// pager_data_unavailable.
func TestTable36DataManagerToKernel(t *testing.T) {
	k := newTestKernel(t)
	client := k.NewTask()
	sp, mgr, moName := startManager(t, k, client)
	sp.seed(0, 0x36)

	addr, err := client.VMAllocateWithPager(moName, 0, 0, 2*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	// pager_data_provided: the seeded page arrives.
	b, err := client.VMRead(addr, 1)
	if err != nil || b[0] != 0x36 {
		t.Fatalf("pager_data_provided: %v %v", b, err)
	}
	// pager_data_unavailable: the unseeded page zero-fills.
	b, err = client.VMRead(addr+pgsz, 1)
	if err != nil || b[0] != 0 {
		t.Fatalf("pager_data_unavailable: %v %v", b, err)
	}
	mo, ok := mgr.Object(func() ipc.Name {
		// the storePager's single object
		for _, n := range []ipc.Name{1, 2, 3, 4, 5, 6, 7, 8} {
			if m, ok := mgr.Object(n); ok && m != nil {
				return n
			}
		}
		return 0
	}())
	if !ok {
		t.Fatal("manager lost its object")
	}
	// pager_data_lock: revoke write access to page 0.
	if err := mo.DataLock(0, pgsz, vm.ProtWrite); err != nil {
		t.Fatalf("pager_data_lock: %v", err)
	}
	// pager_cache: permit retention after release.
	if err := mo.Cache(true); err != nil {
		t.Fatalf("pager_cache: %v", err)
	}
	// Dirty page 1, then pager_clean_request writes it back while
	// keeping it cached.
	if err := client.VMWrite(addr+pgsz, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if err := mo.CleanRequest(pgsz, pgsz); err != nil {
		t.Fatalf("pager_clean_request: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sp.mu.Lock()
		data := sp.store[pgsz]
		sp.mu.Unlock()
		if bytes.HasPrefix(data, []byte{0xCC}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clean write-back never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// pager_flush_request: invalidate page 0; the next read
	// re-requests it.
	sp.mu.Lock()
	reqs0 := sp.reqs
	sp.mu.Unlock()
	if _, err := mo.FlushRequestSync(0, pgsz); err != nil {
		t.Fatalf("pager_flush_request: %v", err)
	}
	if _, err := client.VMRead(addr, 1); err != nil {
		t.Fatal(err)
	}
	sp.mu.Lock()
	reqs1 := sp.reqs
	sp.mu.Unlock()
	if reqs1 != reqs0+1 {
		t.Fatalf("flush did not invalidate (reqs %d -> %d)", reqs0, reqs1)
	}
}
