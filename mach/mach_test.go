package mach_test

import (
	"bytes"
	"testing"
	"time"

	"repro/mach"
)

// TestPublicAPIQuickstart exercises the README quickstart flow end to
// end through the public package only.
func TestPublicAPIQuickstart(t *testing.T) {
	k := mach.NewKernel(mach.Config{Frames: 512, PageSize: 4096})
	defer k.Shutdown()
	task := k.NewTask()
	addr, err := task.VMAllocate(0, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.VMWrite(addr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	child, err := task.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.VMWrite(addr, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	pb, _ := task.VMRead(addr, 5)
	if string(pb) != "hello" {
		t.Fatalf("parent sees %q", pb)
	}
	st := k.Statistics()
	if st.Faults == 0 || st.CowFaults == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// pubPager is a data manager defined entirely against the public API.
type pubPager struct{ mach.NopHandler }

func (pubPager) DataRequest(mo *mach.MemoryObject, offset, length uint64, desired mach.Prot) {
	page := bytes.Repeat([]byte{0x5A}, int(length))
	_ = mo.DataProvided(offset, page, mach.ProtNone)
}

func TestPublicAPIDataManager(t *testing.T) {
	k := mach.NewKernel(mach.Config{Frames: 256, PageSize: 4096})
	defer k.Shutdown()
	task := k.NewTask()
	mgrTask := k.NewTask()
	mgr := mach.NewManager(mgrTask.Space, pubPager{})
	mo, err := mgr.NewObject(nil)
	if err != nil {
		t.Fatal(err)
	}
	go mgr.Run()
	defer mgr.Stop()
	p, err := mgrTask.Space.Resolve(mo.Port)
	if err != nil {
		t.Fatal(err)
	}
	name, err := task.Space.InsertRight(p, mach.SendRight)
	if err != nil {
		t.Fatal(err)
	}
	maddr, err := task.VMAllocateWithPager(name, 0, 0, 8*4096, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := task.VMRead(maddr+4096, 2)
	if err != nil || b[0] != 0x5A || b[1] != 0x5A {
		t.Fatalf("pager data %v %v", b, err)
	}
}

func TestPublicAPIComplex(t *testing.T) {
	kernels, topo, clock := mach.Complex(3, mach.NUMA, 128, 4096)
	defer func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	}()
	if len(kernels) != 3 {
		t.Fatalf("kernels %d", len(kernels))
	}
	for i, k := range kernels {
		if k.Host() != mach.HostID(i) {
			t.Fatalf("host %d = %d", i, k.Host())
		}
		if k.Clock() != clock || k.Topology() != topo {
			t.Fatal("kernels do not share clock/topology")
		}
	}
	// Cross-host message charges the shared clock.
	a := kernels[0].NewTask()
	b := kernels[2].NewTask()
	svc, _ := b.Space.AllocatePort()
	p, _ := b.Space.Resolve(svc)
	name, _ := a.Space.InsertRight(p, mach.SendRight)
	before := clock.Now()
	if err := a.Send(&mach.Message{ID: 1, RemotePort: name}, mach.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Receive(svc, mach.ReceiveOptions{Timeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == before {
		t.Fatal("cross-host message charged nothing")
	}
	if topo.Stats().RemoteMessages != 1 {
		t.Fatalf("net stats %+v", topo.Stats())
	}
}

func TestPublicAPIFilesystemSuite(t *testing.T) {
	k := mach.NewKernel(mach.Config{Frames: 512, PageSize: 4096})
	defer k.Shutdown()
	disk := mach.NewDisk(512, 4096, mach.DefaultDiskLatency, k.Clock())
	srv, err := mach.NewFSServer(k, disk)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Stop()
	if err := srv.CreateFile("f", []byte("public api")); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask()
	svc, _ := srv.Publish(task)
	addr, size, err := mach.FSReadFile(task, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := task.VMRead(addr, size)
	if string(got) != "public api" {
		t.Fatalf("read %q", got)
	}
	n, err := mach.FSStat(task, svc, "f")
	if err != nil || n != 10 {
		t.Fatalf("stat %d %v", n, err)
	}
	_ = task.VMDeallocate(addr, mach.FSMappedSize(task, size))
}

func TestPublicAPISharedMemoryAndCamelot(t *testing.T) {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 512, 4096)
	defer func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	}()
	srv, err := mach.NewSharedMemoryServer(kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Stop()
	t0 := kernels[0].NewTask()
	t1 := kernels[1].NewTask()
	svc0, _ := srv.Publish(t0)
	svc1, _ := srv.Publish(t1)
	if err := mach.SharedCreate(t0, svc0, "r", 4096); err != nil {
		t.Fatal(err)
	}
	a0, _, err := mach.SharedAttach(t0, svc0, "r")
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := mach.SharedAttach(t1, svc1, "r")
	if err != nil {
		t.Fatal(err)
	}
	t0.VMWrite(a0, []byte{7})
	b, err := t1.VMRead(a1, 1)
	if err != nil || b[0] != 7 {
		t.Fatalf("shared read %v %v", b, err)
	}

	// Camelot over the public API.
	dataDisk := mach.NewDisk(256, 4096, 0, nil)
	logDisk := mach.NewDisk(1024, 4096, 0, nil)
	dm, err := mach.NewCamelotDiskManager(kernels[0], dataDisk, logDisk)
	if err != nil {
		t.Fatal(err)
	}
	go dm.Run()
	defer dm.Stop()
	app := kernels[0].NewTask()
	csvc, _ := dm.Publish(app)
	client := mach.CamelotOpen(app, csvc)
	if err := client.CreateSegment("s", 4096); err != nil {
		t.Fatal(err)
	}
	seg, err := client.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx := client.Begin()
	if err := tx.Write(seg, 0, []byte("tx")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := seg.Read(0, 2)
	if string(got) != "tx" {
		t.Fatalf("segment %q", got)
	}
}

func TestPublicAPIMigrationAndUnixEmu(t *testing.T) {
	kernels, _, _ := mach.Complex(2, mach.NORMA, 512, 4096)
	defer func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	}()
	src := kernels[0].NewTask()
	addr, _ := src.VMAllocate(0, 8*4096, true)
	src.VMWrite(addr, []byte("migrate me"))
	migrated, mig, err := mach.Migrate(src, kernels[1], mach.MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mig.Stop()
	got, err := migrated.VMRead(addr, 10)
	if err != nil || string(got) != "migrate me" {
		t.Fatalf("migrated read %q %v", got, err)
	}

	// UNIX emulation baseline through the public API.
	disk := mach.NewDisk(256, 4096, 0, nil)
	bc := mach.NewBufferCacheFS(disk, nil, mach.ModelFor(mach.UMA), 8)
	if err := bc.Create("u", []byte("unix file")); err != nil {
		t.Fatal(err)
	}
	f, err := bc.Open("u")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "unix file" {
		t.Fatalf("bc read %q %v", buf, err)
	}
}

func TestPublicAPIFaultPolicy(t *testing.T) {
	k := mach.NewKernel(mach.Config{
		Frames: 128, PageSize: 4096,
		Fault: mach.FaultPolicy{Timeout: 30 * time.Millisecond},
	})
	defer k.Shutdown()
	task := k.NewTask()
	mgrTask := k.NewTask()
	// A manager that never answers.
	mgr := mach.NewManager(mgrTask.Space, mach.NopHandler{})
	mo, _ := mgr.NewObject(nil)
	go mgr.Run()
	defer mgr.Stop()
	p, _ := mgrTask.Space.Resolve(mo.Port)
	name, _ := task.Space.InsertRight(p, mach.SendRight)
	addr, err := task.VMAllocateWithPager(name, 0, 0, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.VMRead(addr, 1); err != mach.ErrMemoryFailure {
		t.Fatalf("silent manager: %v", err)
	}
}

func TestProtAndInheritValues(t *testing.T) {
	if !mach.ProtAll.Allows(mach.ProtRead | mach.ProtWrite) {
		t.Fatal("ProtAll should allow rw")
	}
	if mach.ProtRead.Allows(mach.ProtWrite) {
		t.Fatal("ProtRead should not allow write")
	}
	if mach.InheritCopy.String() != "copy" || mach.InheritShare.String() != "share" {
		t.Fatal("inherit names wrong")
	}
	if mach.ProtDefault.String() != "rw-" {
		t.Fatalf("ProtDefault renders %q", mach.ProtDefault.String())
	}
}

// TestPortSetFacade drives port sets and dead-name notifications
// through the public facade: one task receives from two service ports
// via a set, and a client learns of a service's death through
// OnDeadName.
func TestPortSetFacade(t *testing.T) {
	k := mach.NewKernel(mach.Config{})
	defer k.Shutdown()
	server := k.NewTask()
	client := k.NewTask()

	set, err := server.Space.AllocatePortSet()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := server.Space.AllocatePort()
	b, _ := server.Space.AllocatePort()
	if err := server.Space.MoveToPortSet(set, a); err != nil {
		t.Fatal(err)
	}
	if err := server.Space.MoveToPortSet(set, b); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Receive(a, mach.ReceiveOptions{NonBlocking: true}); err != mach.ErrInSet {
		t.Fatalf("direct receive on member: %v, want ErrInSet", err)
	}
	ca, _ := server.Space.CopySendRight(client.Space, a)
	cb, _ := server.Space.CopySendRight(client.Space, b)
	for i, n := range []mach.Name{ca, cb} {
		if err := client.Send(&mach.Message{ID: mach.MsgID(i + 1), RemotePort: n}, mach.SendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[mach.Name]bool{}
	for i := 0; i < 2; i++ {
		m, err := server.Receive(set, mach.ReceiveOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		got[m.LocalPort] = true
	}
	if !got[a] || !got[b] {
		t.Fatalf("set receive served %v, want both members", got)
	}

	// Dead-name notification through the watcher facade.
	w := mach.NewLifecycleWatcher(client.Space)
	loop := mach.NewLoop(client.Space)
	if err := w.ServeOn(loop); err != nil {
		t.Fatal(err)
	}
	go loop.Run(1)
	defer loop.Stop()
	fired := make(chan mach.Name, 1)
	if err := w.OnDeadName(ca, func(n mach.Name) { fired <- n }); err != nil {
		t.Fatal(err)
	}
	if err := server.Space.DeallocatePort(a); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-fired:
		if n != ca {
			t.Fatalf("dead name %d, want %d", n, ca)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead-name callback never ran")
	}
	if _, err := client.Space.Resolve(ca); err != mach.ErrDeadName {
		t.Fatalf("resolve dead name: %v", err)
	}
}
