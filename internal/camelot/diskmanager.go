package camelot

import (
	"errors"
	"sync"

	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/lifecycle"
	"repro/internal/machine"
	"repro/internal/pager"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// The service wire protocol — message IDs, payload codecs, the typed
// client and the server demux — is generated from the interface
// definition in internal/idl/defs/camelot.go (zz_generated_machgen.go).
// The on-disk log record format (log.go) stays hand-written: it is a
// storage format with block padding, not a message payload.

// Errors returned by the client library.
var (
	// ErrNoSegment: unknown segment name.
	ErrNoSegment = errors.New("camelot: segment not found")
	// ErrServer: malformed reply or manager failure.
	ErrServer = errors.New("camelot: disk manager error")
)

// Stats counts the disk manager activity experiment E7 reports.
type Stats struct {
	// LogRecords is the number of records appended.
	LogRecords int64
	// LogForces counts log-force events (commit or WAL).
	LogForces int64
	// WALForces counts log forces triggered specifically by a page
	// write-back arriving before its records were on disk — the
	// paper's pager_flush_request check.
	WALForces int64
	// PageWrites counts recoverable pages written to the data disk.
	PageWrites int64
	// Commits and Aborts count transaction outcomes.
	Commits int64
	Aborts  int64
	// SegmentReaps counts segments whose last attachment right died
	// (client detach or death): the log is forced and the volatile
	// per-page LSN tracking for the segment is dropped. The durable
	// segment itself survives for re-attachment.
	SegmentReaps int64
}

// segment is one recoverable segment: a contiguous range of data-disk
// blocks served as a memory object.
type segment struct {
	id     uint32
	name   string
	size   uint64
	blocks []int // page i -> data disk block
	mo     *pager.MemoryObject
}

// DiskManager is the Camelot disk manager task: an external pager over
// recoverable segments, a write-ahead log, and the transaction table.
type DiskManager struct {
	kernel *kern.Kernel
	task   *kern.Task
	mgr    *pager.Manager
	rpc    *rpc.Server
	lc     *lifecycle.Watcher

	// dataDisk holds recoverable segment pages: a simulated
	// machine.Disk, or a FileVolume / FramePool for a durable manager.
	dataDisk pager.BlockStore
	// wal is the write-ahead log device.
	wal *WAL
	// durable carries the real-file resources of a durable manager
	// (nil for the simulated constructor).
	durable *durableState

	mu       sync.Mutex
	segments map[string]*segment
	bySegID  map[uint32]*segment
	byObject map[ipc.Name]*segment
	nextSeg  uint32
	nextBlk  int

	// Volatile log state (lost at crash).
	buffer    []record // records past forcedLSN
	nextLSN   uint64
	forcedLSN uint64
	enc       rpc.Enc // forceLog's record encoder
	// pageLSN[seg<<32|page] is the highest LSN that touched the page.
	pageLSN map[uint64]uint64

	// The commit queue (see commitLoop), in LSN order. Stop sets closing
	// once the service loop has exited; from then on nothing is queued.
	commits       []pendingCommit
	closing       bool
	wake          chan struct{} // 1-buffered: the queue or closing changed
	committerDone chan struct{}
	stopOnce      sync.Once

	stats Stats

	// ServicePort receives client requests.
	ServicePort ipc.Name
}

// NewDiskManager starts a disk manager on kernel k with separate data and
// log disks (the data disk's block size must equal the page size). The
// simulated-disk manager: writes are instantly durable, the clock is
// charged per operation — the deterministic experiments run here. For a
// manager over real files see NewDurableDiskManager.
func NewDiskManager(k *kern.Kernel, dataDisk, logDisk *machine.Disk) (*DiskManager, error) {
	return newManager(k, dataDisk, NewSimWAL(logDisk))
}

// newManager wires a disk manager over any data store and log device.
func newManager(k *kern.Kernel, dataDisk pager.BlockStore, wal *WAL) (*DiskManager, error) {
	if uint64(dataDisk.BlockSize()) != k.VM.PageSize() {
		return nil, errors.New("camelot: data disk block size must equal page size")
	}
	dm := &DiskManager{
		kernel:        k,
		task:          k.NewTask(),
		dataDisk:      dataDisk,
		wal:           wal,
		segments:      make(map[string]*segment),
		bySegID:       make(map[uint32]*segment),
		byObject:      make(map[ipc.Name]*segment),
		pageLSN:       make(map[uint64]uint64),
		wake:          make(chan struct{}, 1),
		committerDone: make(chan struct{}),
	}
	dm.mgr = pager.NewManager(dm.task.Space, (*dmHandler)(dm))
	srv, err := rpc.NewServer(dm.task.Space)
	if err != nil {
		return nil, err
	}
	RegisterCamelotServer(srv, (*dmService)(dm))
	dm.rpc = srv
	// Lifecycle notifications (segment no-senders) are consumed ahead
	// of the service demux; both run on the manager loop.
	dm.lc = lifecycle.New(dm.task.Space)
	dm.mgr.Default = dm.lc.Chain(srv.Dispatch)
	dm.ServicePort = srv.Port
	if err := dm.mgr.Adopt(srv.Port); err != nil {
		return nil, err
	}
	go dm.commitLoop()
	return dm, nil
}

// Run serves the manager loop until Stop.
func (dm *DiskManager) Run() { dm.mgr.Run() }

// Stop terminates the manager task, in an order that answers every
// commit truthfully: the service loop stops; the manager is marked
// closing, so no commit is queued after it; the committer answers what
// is queued and exits; only then does the task's space — which holds
// those commits' reply ports — die. Later calls do nothing.
func (dm *DiskManager) Stop() {
	dm.stopOnce.Do(func() {
		dm.mgr.Quiesce()
		dm.mu.Lock()
		dm.closing = true
		dm.mu.Unlock()
		dm.kick()
		<-dm.committerDone
		dm.mgr.Stop()
	})
}

// Stats returns a snapshot of activity counters.
func (dm *DiskManager) Stats() Stats {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	return dm.stats
}

// WAL exposes the manager's log device (stats, fault injection).
func (dm *DiskManager) WAL() *WAL { return dm.wal }

// IOCounters reports the data store's real-I/O counters (zero for a
// bare simulated disk without counter support).
func (dm *DiskManager) IOCounters() pager.IOCounters {
	if cs, ok := dm.dataDisk.(pager.CounterStore); ok {
		return cs.Counters()
	}
	return pager.IOCounters{}
}

// Publish hands a client task a send right to the service port.
func (dm *DiskManager) Publish(client *kern.Task) (ipc.Name, error) {
	return dm.task.Space.CopySendRight(client.Space, dm.ServicePort)
}

func pageKey(seg uint32, page uint64) uint64 { return uint64(seg)<<32 | page }

// --- write-ahead log --------------------------------------------------------

// appendRecord adds a record to the volatile log buffer. Lock held.
func (dm *DiskManager) appendRecord(r record) uint64 {
	dm.nextLSN++
	r.lsn = dm.nextLSN
	dm.buffer = append(dm.buffer, r)
	dm.stats.LogRecords++
	return r.lsn
}

// forceLog writes buffered records through lsn to the log device, as one
// run. Lock held. Log block b holds the record with LSN b+1. On a
// durable manager this only SUBMITS the write (forcedLSN means
// "written"); callers needing stable storage follow up with
// dm.wal.Force(lsn) OUTSIDE the lock, so concurrent forces can
// group-commit onto a shared fsync.
func (dm *DiskManager) forceLog(lsn uint64) {
	if lsn <= dm.forcedLSN {
		return
	}
	dm.stats.LogForces++
	n := 0
	for n < len(dm.buffer) && dm.buffer[n].lsn <= lsn {
		n++
	}
	if n == 0 {
		return
	}
	run := dm.buffer[:n]
	dm.wal.AppendRun(run[0].lsn, n, encodeRun(run, dm.wal.BlockSize(), &dm.enc))
	dm.forcedLSN = run[n-1].lsn
	// The written records' payloads are garbage now; a drained buffer
	// starts over in the same array.
	clear(run)
	if n == len(dm.buffer) {
		dm.buffer = dm.buffer[:0]
	} else {
		dm.buffer = dm.buffer[n:]
	}
}

// pendingCommit is a commit whose records are submitted and whose reply
// waits for the committer's force.
type pendingCommit struct {
	lsn   uint64
	reply rpc.Deferred
}

// kick wakes the committer; a wake already pending covers this one.
func (dm *DiskManager) kick() {
	select {
	case dm.wake <- struct{}{}:
	default:
	}
}

// commitLoop is the committer goroutine. It takes the whole commit
// queue, forces the log once through the newest commit in it, and
// answers every commit in LSN order. It exits once Stop has marked the
// manager closing and the last queue is answered.
func (dm *DiskManager) commitLoop() {
	defer close(dm.committerDone)
	var batch []pendingCommit
	for range dm.wake {
		dm.mu.Lock()
		batch, dm.commits = dm.commits, batch[:0]
		closing := dm.closing
		dm.mu.Unlock()
		if n := len(batch); n > 0 {
			st := rpc.StatusOf(dm.awaitDurable(batch[n-1].lsn, n))
			for i := range batch {
				batch[i].reply.Reply(st)
			}
		}
		if closing {
			return
		}
	}
}

// awaitDurable waits until the log is on stable storage through lsn,
// the newest of n commits. A log-device failure fails all n — the
// clients hear it instead of a silent loss — and uncounts them.
func (dm *DiskManager) awaitDurable(lsn uint64, n int) error {
	if err := dm.wal.Force(lsn); err != nil {
		dm.mu.Lock()
		dm.stats.Commits -= int64(n)
		dm.mu.Unlock()
		return rpc.Errf(rpc.StatusServerErr, "camelot: log force: %v", err)
	}
	return nil
}

// --- pager interface --------------------------------------------------------

// dmHandler implements pager.Handler for recoverable segments.
type dmHandler DiskManager

func (h *dmHandler) dm() *DiskManager { return (*DiskManager)(h) }

func (h *dmHandler) PagerInit(mo *pager.MemoryObject)   {}
func (h *dmHandler) PagerCreate(mo *pager.MemoryObject) {}
func (h *dmHandler) PortDeath(mo *pager.MemoryObject)   {}
func (h *dmHandler) DataUnlock(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
}

// DataRequest serves recoverable pages from the data disk: the part of
// the requested range that lies inside the segment.
func (h *dmHandler) DataRequest(mo *pager.MemoryObject, offset, length uint64, desired vm.Prot) {
	dm := h.dm()
	seg, _ := mo.Tag.(*segment)
	ps := dm.kernel.VM.PageSize()
	if seg == nil {
		_ = mo.DataUnavailable(offset, ps)
		return
	}
	mo.ProvideRange(offset, length, ps, func(off uint64, page []byte) bool {
		idx := int(off / ps)
		dm.mu.Lock()
		blk := -1
		if idx < len(seg.blocks) {
			blk = seg.blocks[idx]
		}
		dm.mu.Unlock()
		if blk < 0 {
			return false
		}
		dm.dataDisk.Read(blk, page)
		return true
	})
}

// DataWrite is the heart of §8.3: before a recoverable page goes to the
// data disk, the log must be forced through that page's last LSN.
// "Recoverable data can be written directly to permanent backing storage
// without first being written to temporary paging storage."
func (h *dmHandler) DataWrite(mo *pager.MemoryObject, offset uint64, data []byte) {
	dm := h.dm()
	seg, _ := mo.Tag.(*segment)
	if seg == nil {
		return
	}
	ps := dm.kernel.VM.PageSize()
	idx := int(offset / ps)
	dm.mu.Lock()
	if idx >= len(seg.blocks) {
		dm.mu.Unlock()
		return
	}
	pageLSN := dm.pageLSN[pageKey(seg.id, uint64(idx))]
	if pageLSN > dm.forcedLSN {
		dm.stats.WALForces++
		dm.forceLog(pageLSN)
	}
	blk := seg.blocks[idx]
	dm.stats.PageWrites++
	dm.mu.Unlock()
	// The WAL invariant on a real device: the page's records must be on
	// STABLE storage, not merely submitted, before the page overwrites
	// its disk block. If the log device is dead the page write is
	// dropped — losing a cached page is recoverable, violating
	// write-ahead is not.
	if err := dm.wal.Force(pageLSN); err != nil {
		return
	}
	dm.dataDisk.Write(blk, data)
}

// --- service protocol --------------------------------------------------------

// dmService implements the generated CamelotServerAPI against the
// manager's state; RegisterCamelotServer demuxes and decodes.
type dmService DiskManager

// CreateSegment creates a recoverable segment.
func (h *dmService) CreateSegment(m *ipc.Message, in *CreateSegmentRequest) error {
	dm := (*DiskManager)(h)
	_, err := dm.createSegment(in.Name, in.Size)
	return err
}

func (dm *DiskManager) createSegment(name string, size uint64) (*segment, error) {
	ps := dm.kernel.VM.PageSize()
	size = (size + ps - 1) / ps * ps
	npages := int(size / ps)
	dm.mu.Lock()
	if _, dup := dm.segments[name]; dup {
		dm.mu.Unlock()
		return nil, errors.New("camelot: segment exists")
	}
	if dm.nextBlk+npages > dm.dataDisk.Blocks() {
		dm.mu.Unlock()
		return nil, errors.New("camelot: data disk full")
	}
	dm.nextSeg++
	seg := &segment{id: dm.nextSeg, name: name, size: size}
	for i := 0; i < npages; i++ {
		seg.blocks = append(seg.blocks, dm.nextBlk)
		dm.nextBlk++
	}
	dm.segments[name] = seg
	dm.bySegID[seg.id] = seg
	dm.mu.Unlock()

	mo, err := dm.mgr.NewObject(seg)
	if err != nil {
		return nil, err
	}
	dm.mu.Lock()
	seg.mo = mo
	dm.byObject[mo.Port] = seg
	dm.mu.Unlock()
	// A durable manager persists the segment table before the creator
	// hears the segment exists.
	if dm.durable != nil {
		if err := dm.saveCatalog(); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// AttachSegment hands out a segment's size, id and memory-object right.
func (h *dmService) AttachSegment(m *ipc.Message, in *AttachSegmentRequest) (*AttachSegmentReply, error) {
	dm := (*DiskManager)(h)
	dm.mu.Lock()
	seg := dm.segments[in.Name]
	dm.mu.Unlock()
	if seg == nil || seg.mo == nil {
		return nil, rpc.Errf(rpc.StatusNotFound, "camelot: no segment %q", in.Name)
	}
	// Reap the per-client session state when the last attachment right
	// dies: a client that vanished mid-transaction leaves its logged
	// updates durable (the reap forces the log) while the volatile
	// page-LSN tracking for the segment is dropped. Recovery rolls the
	// loser back — the kill-the-client path is just crash recovery in
	// miniature.
	if err := dm.lc.OnNoSenders(seg.mo.Port, dm.reapSegment); err != nil {
		return nil, err
	}
	return &AttachSegmentReply{Size: seg.size, ID: seg.id, Object: seg.mo.Port}, nil
}

// LogAppend records an update BEFORE the client applies it to mapped
// memory (the reply is the client's permission to proceed). The decoded
// Old/New fields alias the request message, so they are copied before
// entering the log buffer.
func (h *dmService) LogAppend(m *ipc.Message, in *LogAppendRequest) error {
	dm := (*DiskManager)(h)
	old := append([]byte(nil), in.Old...)
	newData := append([]byte(nil), in.New...)
	if max := MaxUpdate(dm.wal.BlockSize()); len(old) > max || len(newData) > max {
		return rpc.Errf(rpc.StatusTooLarge, "camelot: update exceeds log record capacity")
	}

	ps := dm.kernel.VM.PageSize()
	dm.mu.Lock()
	lsn := dm.appendRecord(record{tx: in.Tx, kind: recUpdate, seg: in.Seg, offset: in.Offset, old: old, new: newData})
	// An update can span two pages; tag both. (An empty update logs a
	// record but dirties no page.)
	if len(newData) > 0 {
		first := in.Offset / ps
		last := (in.Offset + uint64(len(newData)) - 1) / ps
		for pg := first; pg <= last; pg++ {
			dm.pageLSN[pageKey(in.Seg, pg)] = lsn
		}
	}
	dm.mu.Unlock()
	return nil
}

// TxCommit logs a commit and submits the log write through it; the
// reply is sent only once the commit record is on stable storage
// (permanence). On the service loop that wait is the committer's: the
// reply is deferred and the loop goes on serving. A batched commit
// answers inside its container's reply, so it waits here.
func (h *dmService) TxCommit(m *ipc.Message, in *TxCommitRequest) error {
	dm := (*DiskManager)(h)
	dm.mu.Lock()
	lsn := dm.appendRecord(record{tx: in.Tx, kind: recCommit})
	dm.forceLog(lsn)
	dm.stats.Commits++
	if !dm.closing {
		if reply, ok := dm.rpc.Defer(m); ok {
			dm.commits = append(dm.commits, pendingCommit{lsn: lsn, reply: reply})
			dm.mu.Unlock()
			dm.kick()
			return nil
		}
	}
	dm.mu.Unlock()
	return dm.awaitDurable(lsn, 1)
}

// TxAbort records an abort.
func (h *dmService) TxAbort(m *ipc.Message, in *TxAbortRequest) error {
	dm := (*DiskManager)(h)
	dm.mu.Lock()
	dm.appendRecord(record{tx: in.Tx, kind: recAbort})
	dm.stats.Aborts++
	dm.mu.Unlock()
	return nil
}

// reapSegment runs on the manager loop when a segment's last
// attachment right dies. The durable segment survives (it can be
// re-attached); only the volatile per-attachment state goes.
func (dm *DiskManager) reapSegment(n ipc.Name) {
	dm.mu.Lock()
	seg := dm.byObject[n]
	if seg == nil {
		dm.mu.Unlock()
		return
	}
	dm.forceLog(dm.nextLSN)
	lsn := dm.forcedLSN
	for pg := range seg.blocks {
		delete(dm.pageLSN, pageKey(seg.id, uint64(pg)))
	}
	dm.stats.SegmentReaps++
	dm.mu.Unlock()
	_ = dm.wal.Force(lsn)
}

// --- crash and recovery -------------------------------------------------------

// Crash simulates a system failure: the volatile log buffer and page
// LSN table are lost; only the two disks survive. The manager stops
// serving (its kernels' cached pages are considered lost with it).
func (dm *DiskManager) Crash() {
	dm.mu.Lock()
	dm.buffer = nil
	dm.nextLSN = dm.forcedLSN
	dm.pageLSN = make(map[uint64]uint64)
	dm.mu.Unlock()
}

// Recover replays the write-ahead log against the data disk by repeating
// history (the ARIES discipline): every update is re-applied in LSN
// order; an abort record compensates its transaction's updates in reverse
// (matching the client-side undo that happened in memory); transactions
// with no outcome record (the losers) are rolled back last, newest
// first. Because the log is never truncated, the replay reconstructs
// exactly the memory state at the crash with losers removed. It returns
// the number of updates applied.
func (dm *DiskManager) Recover() int {
	ps := int(dm.kernel.VM.PageSize())
	// Read the log from the device.
	recs := dm.wal.scan()
	applied := 0
	apply := func(segID uint32, offset uint64, data []byte) {
		dm.mu.Lock()
		seg := dm.bySegID[segID]
		dm.mu.Unlock()
		if seg == nil {
			return
		}
		for len(data) > 0 {
			idx := int(offset) / ps
			in := int(offset) % ps
			n := ps - in
			if n > len(data) {
				n = len(data)
			}
			if idx < len(seg.blocks) {
				page := make([]byte, ps)
				dm.dataDisk.Read(seg.blocks[idx], page)
				copy(page[in:], data[:n])
				dm.dataDisk.Write(seg.blocks[idx], page)
			}
			offset += uint64(n)
			data = data[n:]
		}
		applied++
	}
	// Repeat history in LSN order.
	pending := make(map[uint64][]record)
	for _, r := range recs {
		switch r.kind {
		case recUpdate:
			apply(r.seg, r.offset, r.new)
			pending[r.tx] = append(pending[r.tx], r)
		case recCommit:
			delete(pending, r.tx)
		case recAbort:
			// Compensate: the client restored old values in memory
			// at abort time, in reverse order.
			ups := pending[r.tx]
			for i := len(ups) - 1; i >= 0; i-- {
				apply(ups[i].seg, ups[i].offset, ups[i].old)
			}
			delete(pending, r.tx)
		}
	}
	// Roll back losers (no outcome record), newest update first.
	var losers []record
	for _, ups := range pending {
		losers = append(losers, ups...)
	}
	for i := 0; i < len(losers); i++ {
		for j := i + 1; j < len(losers); j++ {
			if losers[j].lsn > losers[i].lsn {
				losers[i], losers[j] = losers[j], losers[i]
			}
		}
	}
	for _, r := range losers {
		apply(r.seg, r.offset, r.old)
	}
	dm.mu.Lock()
	dm.nextLSN = dm.forcedLSN
	dm.mu.Unlock()
	return applied
}

// SegmentBytes reads a segment's current content from the data disk — the
// post-recovery view of permanent storage, independent of any (lost)
// kernel caches.
func (dm *DiskManager) SegmentBytes(name string) ([]byte, error) {
	dm.mu.Lock()
	seg := dm.segments[name]
	dm.mu.Unlock()
	if seg == nil {
		return nil, ErrNoSegment
	}
	ps := int(dm.kernel.VM.PageSize())
	out := make([]byte, seg.size)
	buf := make([]byte, ps)
	for i, blk := range seg.blocks {
		dm.dataDisk.Read(blk, buf)
		copy(out[i*ps:], buf)
	}
	return out, nil
}
