package pager

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/vm"
)

func TestPayloadRoundTrip(t *testing.T) {
	f := func(offset, length uint64, prot uint8, flag byte, data []byte) bool {
		b := encodePayload(offset, length, vm.Prot(prot), flag, data)
		o, l, p, fl, d, ok := decodePayload(b)
		return ok && o == offset && l == length && p == vm.Prot(prot) &&
			fl == flag && bytes.Equal(d, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadTooShort(t *testing.T) {
	if _, _, _, _, _, ok := decodePayload(make([]byte, wireHeaderLen-1)); ok {
		t.Fatal("short payload decoded")
	}
	if _, _, _, _, _, ok := decodePayload(nil); ok {
		t.Fatal("nil payload decoded")
	}
}

// recordingHandler captures handler calls for protocol-level tests.
type recordingHandler struct {
	NopHandler
	calls chan string
}

func (h *recordingHandler) PagerInit(mo *MemoryObject)   { h.calls <- "init" }
func (h *recordingHandler) PagerCreate(mo *MemoryObject) { h.calls <- "create" }
func (h *recordingHandler) PortDeath(mo *MemoryObject)   { h.calls <- "death" }
func (h *recordingHandler) DataRequest(mo *MemoryObject, offset, length uint64, desired vm.Prot) {
	h.calls <- "request"
	_ = mo.DataProvided(offset, bytes.Repeat([]byte{9}, int(length)), vm.ProtNone)
}

func expectCall(t *testing.T, ch chan string, want string) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("handler call %q, want %q", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no %q call", want)
	}
}

func TestObjectCacheInitRequestTerminate(t *testing.T) {
	sys := vm.NewSystem(vm.Config{Frames: 64, PageSize: 128})
	defer sys.Shutdown()
	cache := NewObjectCache(sys, 0, nil)

	mgrSpace := ipc.NewSpace(0, nil)
	h := &recordingHandler{calls: make(chan string, 16)}
	mgr := NewManager(mgrSpace, h)
	mo, err := mgr.NewObject(nil)
	if err != nil {
		t.Fatal(err)
	}
	go mgr.Run()
	defer mgr.Stop()

	moPort, _ := mgrSpace.Resolve(mo.Port)
	obj := cache.Lookup(moPort, 4*128)
	expectCall(t, h.calls, "init")
	if obj.Size() != 4*128 {
		t.Fatalf("object size %d", obj.Size())
	}
	// Second lookup returns the same object, no second init.
	if obj2 := cache.Lookup(moPort, 128); obj2 != obj {
		t.Fatal("cache returned different object")
	}
	select {
	case c := <-h.calls:
		t.Fatalf("unexpected handler call %q", c)
	case <-time.After(20 * time.Millisecond):
	}

	// Fault through a map drives pager_data_request -> provided.
	m := sys.NewMap(0x1000, 0x100000)
	addr, err := m.AllocateWithObject(obj, 0, 0, 128, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	expectCall(t, h.calls, "request")
	if b[0] != 9 {
		t.Fatalf("provided byte %d", b[0])
	}

	// Dropping the last map reference terminates the object; the
	// manager sees the request port die.
	if err := m.Deallocate(addr, 128); err != nil {
		t.Fatal(err)
	}
	expectCall(t, h.calls, "death")
}

func TestObjectCacheManagerDeathFailsObject(t *testing.T) {
	sys := vm.NewSystem(vm.Config{Frames: 64, PageSize: 128})
	defer sys.Shutdown()
	cache := NewObjectCache(sys, 0, nil)

	mgrSpace := ipc.NewSpace(0, nil)
	h := &recordingHandler{calls: make(chan string, 16)}
	mgr := NewManager(mgrSpace, h)
	mo, _ := mgr.NewObject(nil)
	moPort, _ := mgrSpace.Resolve(mo.Port)
	obj := cache.Lookup(moPort, 128)
	// The manager dies without ever serving.
	mgr.Stop()

	m := sys.NewMap(0x1000, 0x100000)
	addr, _ := m.AllocateWithObject(obj, 0, 0, 128, true, false)
	err := m.ReadBytes(addr, make([]byte, 1))
	if err != vm.ErrMemoryFailure {
		t.Fatalf("fault on dead manager: %v", err)
	}
}

func TestDefaultPagerStoresAndServes(t *testing.T) {
	clock := machine.NewClock()
	disk := machine.NewDisk(64, 128, time.Millisecond, clock)
	dp := NewDefaultPager(disk)

	space := ipc.NewSpace(0, nil)
	mgr := NewManager(space, dp)
	mo, _ := mgr.NewObject(nil)
	dp.PagerCreate(mo)

	// Sink space standing in for the kernel's request port.
	kernelSide := ipc.NewSpace(0, nil)
	reqName, _ := kernelSide.AllocatePort()
	reqPort, _ := kernelSide.Resolve(reqName)
	mo.Request, _ = space.InsertRight(reqPort, ipc.SendRight)

	// Unwritten page: DataRequest answers DataUnavailable.
	dp.DataRequest(mo, 0, 128, vm.ProtRead)
	msg, err := kernelSide.Receive(reqName, ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil || msg.ID != MsgDataUnavailable {
		t.Fatalf("unwritten page: %v %+v", err, msg)
	}

	// Written page: round-trips through the disk.
	page := bytes.Repeat([]byte{0x5C}, 128)
	dp.DataWrite(mo, 256, page)
	if dp.BackingPages() != 1 {
		t.Fatalf("backing pages %d", dp.BackingPages())
	}
	dp.DataRequest(mo, 256, 128, vm.ProtRead)
	msg, err = kernelSide.Receive(reqName, ipc.ReceiveOptions{Timeout: time.Second})
	if err != nil || msg.ID != MsgDataProvided {
		t.Fatalf("written page: %v %+v", err, msg)
	}
	off, _, _, _, data, ok := decodePayload(msg.InlineData())
	if !ok || off != 256 || !bytes.Equal(data, page) {
		t.Fatalf("provided payload off=%d ok=%v", off, ok)
	}
	if disk.Stats().Writes == 0 || disk.Stats().Reads == 0 {
		t.Fatalf("disk not used: %+v", disk.Stats())
	}

	// Rewriting the same page reuses its block.
	dp.DataWrite(mo, 256, page)
	if dp.BackingPages() != 1 {
		t.Fatalf("rewrite grew backing store: %d", dp.BackingPages())
	}
}

func TestDefaultPagerFreesBlocksOnDeath(t *testing.T) {
	disk := machine.NewDisk(4, 128, 0, nil)
	dp := NewDefaultPager(disk)
	space := ipc.NewSpace(0, nil)
	mgr := NewManager(space, dp)
	page := make([]byte, 128)
	// Fill the 4-block disk through one object, kill it, refill via a
	// second object: blocks must be recycled.
	mo1, _ := mgr.NewObject(nil)
	dp.PagerCreate(mo1)
	for i := 0; i < 4; i++ {
		dp.DataWrite(mo1, uint64(i*128), page)
	}
	if dp.BackingPages() != 4 {
		t.Fatalf("backing %d", dp.BackingPages())
	}
	dp.PortDeath(mo1)
	if dp.BackingPages() != 0 {
		t.Fatalf("blocks leaked: %d", dp.BackingPages())
	}
	mo2, _ := mgr.NewObject(nil)
	dp.PagerCreate(mo2)
	for i := 0; i < 4; i++ {
		dp.DataWrite(mo2, uint64(i*128), page)
	}
	if dp.BackingPages() != 4 {
		t.Fatalf("recycled backing %d", dp.BackingPages())
	}
}

func TestManagerDefaultDispatch(t *testing.T) {
	space := ipc.NewSpace(0, nil)
	h := &recordingHandler{calls: make(chan string, 4)}
	mgr := NewManager(space, h)
	other := make(chan *ipc.Message, 1)
	mgr.Default = func(m *ipc.Message) { other <- m }
	svc, _ := space.AllocatePort()
	if err := mgr.Adopt(svc); err != nil {
		t.Fatal(err)
	}
	go mgr.Run()
	defer mgr.Stop()

	if err := space.Send(&ipc.Message{ID: 9999, RemotePort: svc}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-other:
		if m.ID != 9999 {
			t.Fatalf("default got %d", m.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("application message not dispatched to Default")
	}
}

// Stop waits for the message Run is serving, and a handler that stops
// its own manager returns instead of waiting for itself.
func TestStopJoinsRun(t *testing.T) {
	space := ipc.NewSpace(0, nil)
	mgr := NewManager(space, NopHandler{})
	entered, release := make(chan struct{}), make(chan struct{})
	mgr.Default = func(*ipc.Message) {
		close(entered)
		<-release
	}
	svc, _ := space.AllocatePort()
	if err := mgr.Adopt(svc); err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	go func() {
		mgr.Run()
		close(ran)
	}()
	if err := space.Send(&ipc.Message{ID: 1, RemotePort: svc}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	<-entered
	stopped := make(chan struct{})
	go func() {
		mgr.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while Run was serving a message")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	select {
	case <-ran:
	default:
		t.Fatal("Run still running after Stop returned")
	}

	space = ipc.NewSpace(0, nil)
	mgr = NewManager(space, NopHandler{})
	mgr.Default = func(*ipc.Message) { mgr.Stop() }
	svc, _ = space.AllocatePort()
	if err := mgr.Adopt(svc); err != nil {
		t.Fatal(err)
	}
	ran = make(chan struct{})
	go func() {
		mgr.Run()
		close(ran)
	}()
	if err := space.Send(&ipc.Message{ID: 2, RemotePort: svc}, ipc.SendOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a handler stopping its own manager deadlocked")
	}
}

// A ranged request to the default pager is answered with the longest
// prefix it holds, in one message, and with nothing about the rest, which
// may hold pages (5 here) that other faults are waiting for. Only a first
// page it does not hold is reported unavailable, alone. A one-page request
// reads one block.
func TestDefaultPagerAnswersTheHeldPrefix(t *testing.T) {
	disk := machine.NewDisk(64, 128, 0, nil)
	dp := NewDefaultPager(disk)
	space := ipc.NewSpace(0, nil)
	mgr := NewManager(space, dp)
	mo, _ := mgr.NewObject(nil)
	dp.PagerCreate(mo)
	kernelSide := ipc.NewSpace(0, nil)
	reqName, _ := kernelSide.AllocatePort()
	reqPort, _ := kernelSide.Resolve(reqName)
	mo.Request, _ = space.InsertRight(reqPort, ipc.SendRight)
	next := func() (ipc.MsgID, uint64, uint64, []byte) {
		t.Helper()
		msg, err := kernelSide.Receive(reqName, ipc.ReceiveOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		off, length, _, _, data, ok := decodePayload(msg.InlineData())
		if !ok {
			t.Fatal("malformed payload")
		}
		return msg.ID, off, length, data
	}

	// Pages 2 and 3 are on disk, page 4 is not, page 5 is.
	for _, p := range []int{2, 3, 5} {
		dp.DataWrite(mo, uint64(p)*128, bytes.Repeat([]byte{byte(p)}, 128))
	}
	dp.DataRequest(mo, 2*128, 4*128, vm.ProtRead)
	id, off, length, data := next()
	want := append(bytes.Repeat([]byte{2}, 128), bytes.Repeat([]byte{3}, 128)...)
	if id != MsgDataProvided || off != 2*128 || length != 2*128 || !bytes.Equal(data, want) {
		t.Fatalf("first answer: id %d off %d length %d", id, off, length)
	}
	if n := disk.Stats().Reads; n != 2 {
		t.Fatalf("disk reads %d, want the 2 pages provided", n)
	}

	// The next message is the answer to this request: the one before got
	// no second answer. Page 5 is in the range, and held.
	dp.DataRequest(mo, 4*128, 2*128, vm.ProtRead)
	if id, off, length, _ = next(); id != MsgDataUnavailable || off != 4*128 || length != 128 {
		t.Fatalf("answer for a page never written: id %d off %d length %d, want unavailable for that page alone", id, off, length)
	}

	dp.DataRequest(mo, 5*128, 128, vm.ProtRead)
	if id, off, length, _ = next(); id != MsgDataProvided || off != 5*128 || length != 128 {
		t.Fatalf("one-page answer: id %d off %d length %d", id, off, length)
	}
	if n := disk.Stats().Reads; n != 3 {
		t.Fatalf("disk reads %d after a one-page request, want 3", n)
	}
}
