// Package fs implements the paper's minimal filesystem (§4.1): a
// read-whole-file / write-whole-file server whose files are memory
// objects. fs_read_file returns new virtual memory mapped copy-on-write
// in the client's address space; page faults on it reach the server as
// pager_data_request calls, which it satisfies from its disk. The server
// uses only the minimal subset of the external memory interface — it
// never receives pager_data_write or pager_data_unlock — and it cleans up
// a file's resources when the pager request port dies, exactly as the
// paper's port_death handler does.
package fs

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/lifecycle"
	"repro/internal/machine"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// The wire protocol — message IDs, payload structs, codecs, the typed
// client and the server demux — is generated from the interface
// definition in internal/idl/defs/fs.go; see zz_generated_machgen.go.

// ErrStaleHandle: the presented handle names no open session (already
// reaped, or never opened here).
var ErrStaleHandle = errors.New("fs: stale handle")

// maxReadAt bounds one MsgReadAt transfer; larger reads use ReadFile's
// out-of-line path.
const maxReadAt = 1 << 16

// Errors returned by the client library.
var (
	// ErrNotFound: no file by that name.
	ErrNotFound = errors.New("fs: file not found")
	// ErrServer: malformed reply or server-side failure.
	ErrServer = errors.New("fs: server error")
)

// file is the server's per-file state: its disk blocks, size, and the
// file's memory object (the association from §4.1, "record association of
// file to new_object"). The object is created at first read and REUSED
// for later reads, with pager_cache permission granted, so the kernel
// keeps file pages in its physical memory cache between uses — the
// mechanism behind the paper's §9 claim that Mach uses the bulk of
// physical memory as a cache of secondary storage.
type file struct {
	name   string
	size   uint64
	blocks []int
	mo     *pager.MemoryObject
}

// session is one open handle's server-side state, reaped when the last
// send right to the handle port dies.
type session struct {
	f    *file
	port ipc.Name
}

// Server is the filesystem data manager task.
type Server struct {
	kernel *kern.Kernel
	task   *kern.Task
	mgr    *pager.Manager
	disk   *machine.Disk
	rpc    *rpc.Server
	lc     *lifecycle.Watcher

	mu       sync.Mutex
	files    map[string]*file
	freeBlks []int
	nextBlk  int
	// sessions maps handle-port names (in the server's space) to open
	// state; sessionsReaped counts no-senders reaps.
	sessions       map[ipc.Name]*session
	sessionsReaped int64

	// ServicePort is the name clients send filesystem requests to (in
	// the server's space; hand clients a send right via Publish).
	ServicePort ipc.Name
}

// NewServer creates a filesystem server on the given kernel, backed by
// disk (block size must equal the kernel page size).
func NewServer(k *kern.Kernel, disk *machine.Disk) (*Server, error) {
	if uint64(disk.BlockSize()) != k.VM.PageSize() {
		return nil, errors.New("fs: disk block size must equal page size")
	}
	s := &Server{
		kernel:   k,
		task:     k.NewTask(),
		disk:     disk,
		files:    make(map[string]*file),
		sessions: make(map[ipc.Name]*session),
	}
	s.mgr = pager.NewManager(s.task.Space, (*serverHandler)(s))
	srv, err := rpc.NewServer(s.task.Space)
	if err != nil {
		return nil, err
	}
	RegisterFSServer(srv, (*fsService)(s))
	s.rpc = srv
	// Lifecycle notifications (open-handle no-senders) are consumed
	// ahead of the service demux; both run on the manager loop.
	s.lc = lifecycle.New(s.task.Space)
	s.mgr.Default = s.lc.Chain(srv.Dispatch)
	s.ServicePort = srv.Port
	if err := s.mgr.Adopt(srv.Port); err != nil {
		return nil, err
	}
	return s, nil
}

// Run starts the server's service loop (usually `go srv.Run()`).
func (s *Server) Run() { s.mgr.Run() }

// Stop terminates the server task.
func (s *Server) Stop() { s.mgr.Stop() }

// Publish installs a send right for the service port into a client task's
// space, the capability handoff a name server would perform.
func (s *Server) Publish(client *kern.Task) (ipc.Name, error) {
	return s.task.Space.CopySendRight(client.Space, s.ServicePort)
}

// Disk returns the server's backing disk (for I/O accounting in
// experiments).
func (s *Server) Disk() *machine.Disk { return s.disk }

// --- block management -----------------------------------------------------

func (s *Server) allocBlock() (int, bool) {
	if n := len(s.freeBlks); n > 0 {
		b := s.freeBlks[n-1]
		s.freeBlks = s.freeBlks[:n-1]
		return b, true
	}
	if s.nextBlk >= s.disk.Blocks() {
		return 0, false
	}
	b := s.nextBlk
	s.nextBlk++
	return b, true
}

// storeFile writes data to disk under name, replacing prior contents.
// Any pages of the file's memory object cached by the kernel are flushed
// so later readers see the new contents.
func (s *Server) storeFile(name string, data []byte) error {
	ps := int(s.kernel.VM.PageSize())
	s.mu.Lock()
	f := s.files[name]
	if f == nil {
		f = &file{name: name}
		s.files[name] = f
	}
	need := (len(data) + ps - 1) / ps
	oldPages := len(f.blocks)
	for len(f.blocks) < need {
		b, ok := s.allocBlock()
		if !ok {
			s.mu.Unlock()
			return errors.New("fs: disk full")
		}
		f.blocks = append(f.blocks, b)
	}
	for len(f.blocks) > need {
		s.freeBlks = append(s.freeBlks, f.blocks[len(f.blocks)-1])
		f.blocks = f.blocks[:len(f.blocks)-1]
	}
	f.size = uint64(len(data))
	blocks := append([]int(nil), f.blocks...)
	mo := f.mo
	s.mu.Unlock()

	buf := make([]byte, ps)
	for i := 0; i < need; i++ {
		n := copy(buf, data[i*ps:])
		for j := n; j < ps; j++ {
			buf[j] = 0
		}
		s.disk.Write(blocks[i], buf)
	}
	if mo != nil && s.mgr.RequestPortReady(mo) {
		flushPages := need
		if oldPages > flushPages {
			flushPages = oldPages
		}
		_, _ = mo.FlushRequestSync(0, uint64(flushPages*ps))
	}
	return nil
}

// CreateFile stores a file directly (server-side seeding for tests and
// examples).
func (s *Server) CreateFile(name string, data []byte) error {
	return s.storeFile(name, data)
}

// --- pager interface (kernel-to-manager calls) ----------------------------

// serverHandler implements pager.Handler for the server. The minimal
// filesystem only ever sees DataRequest and PortDeath.
type serverHandler Server

func (h *serverHandler) srv() *Server { return (*Server)(h) }

// PagerInit records the request port (§4.1: "The filesystem must receive
// this message at some time, and should record the pager request port")
// and grants pager_cache so file pages persist in the kernel's cache
// after the last mapping goes away.
func (h *serverHandler) PagerInit(mo *pager.MemoryObject) {
	_ = mo.Cache(true)
}

// DataRequest reads the requested pages from disk and returns them with
// no locking, as the paper's handler does ("allocate disk buffer ...
// lookup ... disk_read ... return the data with no locking ... deallocate
// disk buffer"). The request is a range: the file's blocks behind it go
// back in one pager_data_provided, and what lies past the end of the file
// is reported unavailable — a file has no holes, so the first page
// without a block is the end, and nothing after it exists either.
func (h *serverHandler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	s := h.srv()
	ps := s.kernel.VM.PageSize()
	f, _ := mo.Tag.(*file)
	if f == nil {
		_ = mo.DataUnavailable(offset, ps)
		return
	}
	got := mo.ProvideRange(offset, length, ps, func(off uint64, page []byte) bool {
		idx := int(off / ps)
		s.mu.Lock()
		blk := -1
		if idx < len(f.blocks) {
			blk = f.blocks[idx]
		}
		s.mu.Unlock()
		if blk < 0 {
			return false
		}
		s.disk.Read(blk, page)
		return true
	})
	if 0 < got && got < length {
		_ = mo.DataUnavailable(offset+got, length-got)
	}
}

// DataWrite never happens for the read/copy-on-write interface; data is
// discarded if it does.
func (h *serverHandler) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {}

// DataUnlock never happens (no locks are set).
func (h *serverHandler) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
}

// PagerCreate never happens (the server is not a default pager).
func (h *serverHandler) PagerCreate(mo *pager.MemoryObject) {}

// PortDeath is the paper's port_death handler: release the server's
// resources for this use of the file. With pager_cache granted this only
// fires when the kernel reclaims the cached object.
func (h *serverHandler) PortDeath(mo *pager.MemoryObject) {
	s := h.srv()
	if f, _ := mo.Tag.(*file); f != nil {
		s.mu.Lock()
		if f.mo == mo {
			f.mo = nil
		}
		s.mu.Unlock()
	}
	s.mgr.Remove(mo)
}

// --- service protocol (application-to-server messages) --------------------

// fsService implements the generated FSServerAPI against the server's
// state; RegisterFSServer demuxes and decodes, these methods only act.
type fsService Server

func (h *fsService) srv() *Server { return (*Server)(h) }

// ReadFile implements fs_read_file: create a memory object, map it into
// the server's own address space, and return that region out-of-line so
// the client receives it copy-on-write.
func (h *fsService) ReadFile(m *ipc.Message, in *ReadFileRequest) (*ReadFileReply, error) {
	s := h.srv()
	s.mu.Lock()
	f := s.files[in.Name]
	s.mu.Unlock()
	if f == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "fs: no file %q", in.Name)
	}
	ps := s.kernel.VM.PageSize()
	mapSize := (f.size + ps - 1) / ps * ps
	if mapSize == 0 {
		mapSize = ps
	}
	// "Allocate a memory object (a port), and accept requests" — or
	// reuse the file's existing object, so the kernel's cached pages
	// (retained under pager_cache) serve this read with no disk
	// traffic.
	s.mu.Lock()
	mo := f.mo
	s.mu.Unlock()
	if mo == nil {
		var err error
		mo, err = s.mgr.NewObject(f)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		f.mo = mo
		s.mu.Unlock()
	}
	// "Map the memory object into our address space." The server must
	// never touch this mapping itself: a fault here would be the
	// self-paging deadlock of §6.1.
	addr, err := s.task.VMAllocateWithPager(mo.Port, 0, 0, mapSize, true)
	if err != nil {
		return nil, err
	}
	// Return the region through IPC so it is mapped copy-on-write in
	// the client's address space.
	region, err := s.kernel.NewOOLRegion(s.task, addr, mapSize)
	if err != nil {
		_ = s.task.VMDeallocate(addr, mapSize)
		return nil, err
	}
	// The region now travels in the message; drop the server's own
	// mapping (Mach's deallocate-on-send). The object's pages stay in
	// the kernel cache thanks to pager_cache.
	_ = s.task.VMDeallocate(addr, mapSize)
	return &ReadFileReply{Size: f.size, Content: region}, nil
}

// WriteFile implements fs_write_file: map the client's region and store
// it.
func (h *fsService) WriteFile(m *ipc.Message, in *WriteFileRequest) (*WriteFileReply, error) {
	s := h.srv()
	if in.Content == nil || in.Size > uint64(in.Content.Size()) {
		return nil, rpc.Errf(rpc.StatusBadArgs, "fs: write without a matching region")
	}
	addr, err := s.kernel.MapOOLRegion(s.task, in.Content)
	if err != nil {
		return nil, err
	}
	data := make([]byte, in.Size)
	err = s.task.Map.ReadBytes(addr, data)
	if err == nil {
		err = s.storeFile(in.Name, data)
	}
	_ = s.task.VMDeallocate(addr, uint64(in.Content.Size()))
	if err != nil {
		return nil, err
	}
	return &WriteFileReply{Size: in.Size}, nil
}

// Stat returns a file's size by name.
func (h *fsService) Stat(m *ipc.Message, in *StatRequest) (*StatReply, error) {
	s := h.srv()
	s.mu.Lock()
	f := s.files[in.Name]
	s.mu.Unlock()
	if f == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "fs: no file %q", in.Name)
	}
	return &StatReply{Size: f.size}, nil
}

// --- open handles (per-client sessions) ------------------------------------

// OpenSessions returns the number of live open handles.
func (s *Server) OpenSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SessionsReaped returns how many open handles the no-senders
// machinery has reclaimed.
func (s *Server) SessionsReaped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsReaped
}

// Open creates a per-client handle: a fresh port whose send right is
// the open-file capability. The server arms a no-senders request on it,
// so the session state is reaped the moment the last client right
// disappears — an explicit Close, or the client task dying with the
// right in its space (the paper's port_death cleanup, driven by
// refcount instead of death).
func (h *fsService) Open(m *ipc.Message, in *OpenRequest) (*OpenReply, error) {
	s := h.srv()
	s.mu.Lock()
	f := s.files[in.Name]
	s.mu.Unlock()
	if f == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "fs: no file %q", in.Name)
	}
	sp, err := s.task.Space.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.sessions[sp] = &session{f: f, port: sp}
	s.mu.Unlock()
	if err := s.lc.OnNoSenders(sp, s.reapSession); err != nil {
		s.mu.Lock()
		delete(s.sessions, sp)
		s.mu.Unlock()
		_ = s.task.Space.DeallocatePort(sp)
		return nil, err
	}
	return &OpenReply{Size: f.size, Handle: sp}, nil
}

// reapSession runs on the manager loop when an open handle's last send
// right dies: the session state goes away and the handle port with it.
func (s *Server) reapSession(n ipc.Name) {
	s.mu.Lock()
	sess := s.sessions[n]
	if sess != nil {
		delete(s.sessions, n)
		s.sessionsReaped++
	}
	s.mu.Unlock()
	if sess != nil {
		_ = s.task.Space.DeallocatePort(n)
	}
}

// ReadAt serves a read through an open handle. The handle right rides
// in the message body as the per-call capability; it resolves to the
// very name the server allocated (rights to one port merge onto one
// name per space), which indexes the session table.
func (h *fsService) ReadAt(m *ipc.Message, in *ReadAtRequest) (*ReadAtReply, error) {
	s := h.srv()
	s.mu.Lock()
	sess := s.sessions[in.Handle]
	s.mu.Unlock()
	if sess == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "fs: stale or missing handle")
	}
	length := in.Length
	if length > maxReadAt {
		return nil, rpc.Errf(rpc.StatusTooLarge, "fs: read of %d exceeds %d", length, maxReadAt)
	}
	ps := s.kernel.VM.PageSize()
	s.mu.Lock()
	f := sess.f
	size := f.size
	blocks := append([]int(nil), f.blocks...)
	s.mu.Unlock()
	if in.Offset >= size {
		return &ReadAtReply{}, nil
	}
	if in.Offset+length > size {
		length = size - in.Offset
	}
	out := make([]byte, 0, length)
	buf := make([]byte, ps)
	for len(out) < int(length) {
		pos := in.Offset + uint64(len(out))
		idx := int(pos / ps)
		if idx >= len(blocks) {
			break
		}
		s.disk.Read(blocks[idx], buf)
		off := int(pos % ps)
		n := int(ps) - off
		if rem := int(length) - len(out); n > rem {
			n = rem
		}
		out = append(out, buf[off:off+n]...)
	}
	return &ReadAtReply{Data: out}, nil
}

// List returns the file names, sorted.
func (h *fsService) List(m *ipc.Message) (*ListReply, error) {
	s := h.srv()
	s.mu.Lock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return &ListReply{Names: names}, nil
}
