package fs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/pager"
	"repro/internal/vm"
)

const pgsz = 256

func newFS(t *testing.T) (*kern.Kernel, *Server, *kern.Task) {
	t.Helper()
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	disk := machine.NewDisk(1024, pgsz, machine.DefaultDiskLatency, k.Clock())
	srv, err := NewServer(k, disk)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(srv.Stop)
	client := k.NewTask()
	return k, srv, client
}

func TestReadWholeFile(t *testing.T) {
	_, srv, client := newFS(t)
	content := bytes.Repeat([]byte("mach! "), 200) // ~1200 bytes, 5 pages
	if err := srv.CreateFile("paper.txt", content); err != nil {
		t.Fatal(err)
	}
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	addr, size, err := ReadFile(client, svc, "paper.txt")
	if err != nil {
		t.Fatal(err)
	}
	if size != uint64(len(content)) {
		t.Fatalf("size %d, want %d", size, len(content))
	}
	got, err := client.VMRead(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
}

func TestReadFileNotFound(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	if _, _, err := ReadFile(client, svc, "nope"); err != ErrNotFound {
		t.Fatalf("missing file: %v", err)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	content := bytes.Repeat([]byte{0xD7}, 3*pgsz+11)
	addr, err := client.VMAllocate(0, uint64(len(content)), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.VMWrite(addr, content); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(client, svc, "out.bin", addr, uint64(len(content))); err != nil {
		t.Fatal(err)
	}
	size, err := Stat(client, svc, "out.bin")
	if err != nil || size != uint64(len(content)) {
		t.Fatalf("stat %d %v", size, err)
	}
	raddr, rsize, err := ReadFile(client, svc, "out.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := client.VMRead(raddr, rsize)
	if !bytes.Equal(got, content) {
		t.Fatal("write/read round trip mismatch")
	}
}

func TestCopySemanticsClientWritesPrivate(t *testing.T) {
	// §4.1: the client's random changes are private; other clients
	// consistently see the original contents until write-back.
	_, srv, c1 := newFS(t)
	c2 := c1.Kernel().NewTask()
	svc1, _ := srv.Publish(c1)
	svc2, _ := srv.Publish(c2)
	orig := bytes.Repeat([]byte{0x55}, 2*pgsz)
	srv.CreateFile("shared.txt", orig)

	a1, s1, err := ReadFile(c1, svc1, "shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	// c1 mutates its copy.
	if err := c1.VMWrite(a1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// c2 still sees the original.
	a2, s2, err := ReadFile(c2, svc2, "shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := c2.VMRead(a2, s2)
	if !bytes.Equal(got2, orig) {
		t.Fatal("second client saw first client's private changes")
	}
	// c1 stores back half the file, as the paper's example does.
	if err := WriteFile(c1, svc1, "shared.txt", a1, s1/2); err != nil {
		t.Fatal(err)
	}
	size, _ := Stat(c1, svc1, "shared.txt")
	if size != s1/2 {
		t.Fatalf("stored size %d, want %d", size, s1/2)
	}
}

func TestServerMappingReleasedAfterRead(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	srv.CreateFile("f", bytes.Repeat([]byte{9}, pgsz))
	addr, size, err := ReadFile(client, svc, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VMRead(addr, size); err != nil {
		t.Fatal(err)
	}
	// The server drops its own mapping at reply time (deallocate-on-
	// send): its address space must be empty again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(srv.task.VMRegions()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d regions", len(srv.task.VMRegions()))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCachePersistsAcrossOpens(t *testing.T) {
	// The §9 mechanism: with pager_cache granted, a file read by one
	// client and released stays in the kernel's physical memory cache;
	// a SECOND open+read costs no disk I/O at all.
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	content := bytes.Repeat([]byte{7}, 8*pgsz)
	srv.CreateFile("cached", content)

	a1, s1, err := ReadFile(client, svc, "cached")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VMRead(a1, s1); err != nil {
		t.Fatal(err)
	}
	client.VMDeallocate(a1, MappedSize(client, s1))

	reads0 := srv.Disk().Stats().Reads
	a2, s2, err := ReadFile(client, svc, "cached")
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.VMRead(a2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("second open content mismatch")
	}
	if reads := srv.Disk().Stats().Reads; reads != reads0 {
		t.Fatalf("second open hit disk %d times", reads-reads0)
	}
}

func TestWriteInvalidatesCache(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	srv.CreateFile("inv", bytes.Repeat([]byte{1}, pgsz))
	a1, s1, _ := ReadFile(client, svc, "inv")
	client.VMRead(a1, s1) // populate cache

	// Another task overwrites the file.
	writer := client.Kernel().NewTask()
	wsvc, _ := srv.Publish(writer)
	waddr, _ := writer.VMAllocate(0, pgsz, true)
	writer.VMWrite(waddr, bytes.Repeat([]byte{2}, pgsz))
	if err := WriteFile(writer, wsvc, "inv", waddr, pgsz); err != nil {
		t.Fatal(err)
	}
	// A fresh read must see the new contents (cache was flushed).
	deadline := time.Now().Add(2 * time.Second)
	for {
		a2, s2, err := ReadFile(client, svc, "inv")
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.VMRead(a2, s2)
		if err != nil {
			t.Fatal(err)
		}
		client.VMDeallocate(a2, MappedSize(client, s2))
		if got[0] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale cache after write: %d", got[0])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRepeatedReadsHitCache(t *testing.T) {
	// Mach's claim (§9): repeated file access is served from the
	// physical memory cache, cutting I/O operations. Reading the same
	// file twice through the same mapping costs no extra disk reads.
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	content := bytes.Repeat([]byte{3}, 4*pgsz)
	srv.CreateFile("hot", content)
	addr, size, err := ReadFile(client, svc, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VMRead(addr, size); err != nil {
		t.Fatal(err)
	}
	reads0 := srv.Disk().Stats().Reads
	for i := 0; i < 10; i++ {
		if _, err := client.VMRead(addr, size); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Disk().Stats().Reads; got != reads0 {
		t.Fatalf("cached rereads hit disk: %d -> %d", reads0, got)
	}
}

func TestLargeFileManyPages(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	content := make([]byte, 64*pgsz)
	for i := range content {
		content[i] = byte(i / pgsz)
	}
	srv.CreateFile("big", content)
	addr, size, err := ReadFile(client, svc, "big")
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.VMRead(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("large file mismatch")
	}
}

func TestListFiles(t *testing.T) {
	_, srv, client := newFS(t)
	svc, _ := srv.Publish(client)
	names, err := List(client, svc)
	if err != nil || len(names) != 0 {
		t.Fatalf("empty list: %v %v", names, err)
	}
	srv.CreateFile("b.txt", []byte{1})
	srv.CreateFile("a.txt", []byte{2})
	names, err = List(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.txt" || names[1] != "b.txt" {
		t.Fatalf("list %v", names)
	}
}

// requestLog wraps the server's pager handler and records the length of
// every pager_data_request it is given.
type requestLog struct {
	pager.Handler
	mu      sync.Mutex
	lengths []uint64
}

func (l *requestLog) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	l.mu.Lock()
	l.lengths = append(l.lengths, length/pgsz)
	l.mu.Unlock()
	l.Handler.DataRequest(mo, offset, length, desired)
}

// take returns the request lengths, in pages, recorded since the last
// call.
func (l *requestLog) take() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.lengths
	l.lengths = nil
	return out
}

// newLoggedFS is newFS with a requestLog in front of the pager handler.
func newLoggedFS(t *testing.T) (*kern.Kernel, *Server, *kern.Task, *requestLog) {
	t.Helper()
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	t.Cleanup(k.Shutdown)
	disk := machine.NewDisk(1024, pgsz, machine.DefaultDiskLatency, k.Clock())
	srv, err := NewServer(k, disk)
	if err != nil {
		t.Fatal(err)
	}
	log := &requestLog{Handler: srv.mgr.Handler}
	srv.mgr.Handler = log
	go srv.Run()
	t.Cleanup(srv.Stop)
	return k, srv, k.NewTask(), log
}

func numbered(pages int) []byte {
	content := make([]byte, pages*pgsz)
	for i := range content {
		content[i] = byte(i/pgsz + 1)
	}
	return content
}

// The point of the ranged request: a cold file read is one round trip to
// the pager, not one per page, and reads each block once.
func TestColdFileReadIsOneRequest(t *testing.T) {
	k, srv, client, log := newLoggedFS(t)
	svc, _ := srv.Publish(client)
	content := numbered(16)
	if err := srv.CreateFile("cold", content); err != nil {
		t.Fatal(err)
	}
	addr, size, err := ReadFile(client, svc, "cold")
	if err != nil {
		t.Fatal(err)
	}
	reads0, faults0 := srv.Disk().Stats().Reads, k.VM.Stats().Faults
	got, err := client.VMRead(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if reqs := log.take(); !reflect.DeepEqual(reqs, []uint64{16}) {
		t.Fatalf("pager_data_requests (pages each) %v, want one of 16", reqs)
	}
	if n := srv.Disk().Stats().Reads - reads0; n != 16 {
		t.Fatalf("disk reads %d, want 16", n)
	}
	if n := k.VM.Stats().Faults - faults0; n > 3 {
		t.Fatalf("faults %d, want at most 3", n)
	}
}

// Only what the kernel does not cache is asked for, so a page is never
// read from disk twice.
func TestHalfResidentFileReadsOnlyAbsentPages(t *testing.T) {
	_, srv, client, log := newLoggedFS(t)
	svc, _ := srv.Publish(client)
	content := numbered(16)
	if err := srv.CreateFile("half", content); err != nil {
		t.Fatal(err)
	}
	addr, size, err := ReadFile(client, svc, "half")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VMRead(addr+4*pgsz, 4*pgsz); err != nil {
		t.Fatal(err)
	}
	if reqs := log.take(); !reflect.DeepEqual(reqs, []uint64{4}) {
		t.Fatalf("requests %v, want one of 4 pages", reqs)
	}
	reads0 := srv.Disk().Stats().Reads
	got, err := client.VMRead(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if reqs := log.take(); !reflect.DeepEqual(reqs, []uint64{4, 8}) {
		t.Fatalf("requests %v, want the absent runs: 4 pages, then 8", reqs)
	}
	if n := srv.Disk().Stats().Reads - reads0; n != 12 {
		t.Fatalf("disk reads %d, want the 12 absent pages", n)
	}
}

// A request that reaches past the end of the file is answered with the
// file's pages and pager_data_unavailable for the rest: the kernel
// zero-fills each page past the end as the access gets to it.
func TestRequestPastEndOfFile(t *testing.T) {
	k, srv, client, log := newLoggedFS(t)
	svc, _ := srv.Publish(client)
	content := numbered(3)
	if err := srv.CreateFile("short", content); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(client, svc, "short"); err != nil {
		t.Fatal(err)
	}
	// Map the file's memory object over 8 pages, 5 more than it has.
	srv.mu.Lock()
	mo := srv.files["short"].mo
	srv.mu.Unlock()
	name, err := srv.task.Space.CopySendRight(client.Space, mo.Port)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := client.VMAllocateWithPager(name, 0, 0, 8*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	reads0, zero0 := srv.Disk().Stats().Reads, k.VM.Stats().ZeroFills
	got, err := client.VMRead(addr, 8*pgsz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(content, make([]byte, 5*pgsz)...)) {
		t.Fatal("want the file, then zeroes")
	}
	if reqs := log.take(); !reflect.DeepEqual(reqs, []uint64{8, 5, 4, 3, 2, 1}) {
		t.Fatalf("requests %v", reqs)
	}
	if n := srv.Disk().Stats().Reads - reads0; n != 3 {
		t.Fatalf("disk reads %d, want the file's 3 blocks", n)
	}
	if n := k.VM.Stats().ZeroFills - zero0; n != 5 {
		t.Fatalf("zero fills %d, want the 5 pages past the end", n)
	}
}
