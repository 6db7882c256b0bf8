package camelot

import (
	"errors"
	"os"
	"path/filepath"

	"repro/internal/iomgr"
	"repro/internal/kern"
	"repro/internal/pager"
	"repro/internal/rpc"
)

// DurableOptions sizes a real-file disk manager (NewDurableDiskManager).
type DurableOptions struct {
	// DataBlocks is the data volume capacity in pages (default 1024).
	DataBlocks int
	// LogBlocks is the log capacity in record slots (default 8192).
	LogBlocks int
	// LogBlockSize is the record slot size in bytes; MaxUpdate of it
	// bounds transactional writes (default 512).
	LogBlockSize int
	// Frames, when positive, interposes a frame-table buffer pool of
	// that many page frames between the manager and the data volume.
	Frames int
	// IO configures the I/O manager backend for all three files.
	IO iomgr.Options
}

// durableState carries the real-file resources of a durable manager.
type durableState struct {
	dataVol *pager.FileVolume
	pool    *pager.FramePool
	catalog *iomgr.File
}

// catalogMagic marks a valid catalog file.
const catalogMagic = 0xCA7A106D

// NewDurableDiskManager starts a disk manager whose permanent state —
// recoverable segment pages, the write-ahead log, and the segment
// catalog — lives in real files under dir (data.vol, wal.log,
// catalog.meta), all I/O through the I/O manager. Opening a directory
// that already holds a volume RECOVERS it: the catalog rebuilds the
// segment table, the log is scanned to its durable tail, and replay
// reconstructs exactly the committed state at the crash — uncommitted
// transactions roll back. Commits reply only after the commit record
// is fsynced (by the committer goroutine, group-committed across the
// commits queued behind an fsync in flight), so what a client was told
// is permanent survives pulling the plug.
func NewDurableDiskManager(k *kern.Kernel, dir string, o DurableOptions) (*DiskManager, error) {
	if o.DataBlocks <= 0 {
		o.DataBlocks = 1024
	}
	if o.LogBlocks <= 0 {
		o.LogBlocks = 8192
	}
	if o.LogBlockSize <= 0 {
		o.LogBlockSize = 512
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	ps := int(k.VM.PageSize())
	dataVol, err := pager.OpenFileVolume(filepath.Join(dir, "data.vol"), o.DataBlocks, ps, o.IO)
	if err != nil {
		return nil, err
	}
	var store pager.BlockStore = dataVol
	var pool *pager.FramePool
	if o.Frames > 0 {
		pool = pager.NewFramePool(dataVol, o.Frames)
		store = pool
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"), o.LogBlocks, o.LogBlockSize, o.IO)
	if err != nil {
		dataVol.Close()
		return nil, err
	}
	catOpts := o.IO
	catOpts.Create = true
	catalog, err := iomgr.Open(filepath.Join(dir, "catalog.meta"), catOpts)
	if err != nil {
		wal.Close()
		dataVol.Close()
		return nil, err
	}
	dm, err := newManager(k, store, wal)
	if err != nil {
		catalog.Close()
		wal.Close()
		dataVol.Close()
		return nil, err
	}
	dm.durable = &durableState{dataVol: dataVol, pool: pool, catalog: catalog}
	if err := dm.loadCatalog(); err != nil {
		dm.Close()
		return nil, err
	}
	// Find the durable tail of the log and repeat history: after this,
	// the data store holds exactly the committed state at the crash.
	if recs := wal.scan(); len(recs) > 0 {
		last := recs[len(recs)-1].lsn
		dm.mu.Lock()
		dm.nextLSN, dm.forcedLSN = last, last
		dm.mu.Unlock()
		wal.reopen(last)
		dm.Recover()
	}
	return dm, nil
}

// reopen seeds the log cursors after a recovery scan found records
// through lsn on the device.
func (w *WAL) reopen(lsn uint64) {
	w.mu.Lock()
	if lsn > w.written {
		w.written = lsn
	}
	if lsn > w.durable {
		w.durable = lsn
	}
	w.mu.Unlock()
}

// Close stops the manager (Stop answers every queued commit first) and
// only then releases a durable manager's files, so no commit is failed
// by a log closed under its force. Cached pages are NOT flushed —
// deliberately crash-consistent: recovery replays the log, so a clean
// shutdown needs no checkpoint. (For a simulated manager it is Stop.)
func (dm *DiskManager) Close() error {
	dm.Stop()
	if dm.durable == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(dm.wal.Close())
	keep(dm.durable.catalog.Close())
	keep(dm.durable.dataVol.Close())
	return first
}

// saveCatalog persists the segment table: magic, allocation cursors,
// then per segment id / size / first block / page count / name (a
// segment's blocks are always contiguous). Written synchronously and
// fsynced — a segment exists once its creator gets a reply.
func (dm *DiskManager) saveCatalog() error {
	dm.mu.Lock()
	e := rpc.NewEnc().U32(catalogMagic).U32(dm.nextSeg).U64(uint64(dm.nextBlk)).U32(uint32(len(dm.segments)))
	for _, seg := range dm.segments {
		start := uint64(0)
		if len(seg.blocks) > 0 {
			start = uint64(seg.blocks[0])
		}
		e.U32(seg.id).U64(seg.size).U64(start).U32(uint32(len(seg.blocks))).String(seg.name)
	}
	dm.mu.Unlock()
	cat := dm.durable.catalog
	if _, err := cat.SyncWriteAt(e.Payload(), 0); err != nil {
		return err
	}
	return cat.SyncFsync()
}

// loadCatalog rebuilds the segment table (and each segment's memory
// object) from a previously saved catalog; a fresh file is a no-op.
func (dm *DiskManager) loadCatalog() error {
	cat := dm.durable.catalog
	size, err := cat.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	buf := make([]byte, size)
	if _, err := cat.SyncReadAt(buf, 0); err != nil {
		return err
	}
	d := rpc.NewDec(buf)
	if d.U32() != catalogMagic {
		return errors.New("camelot: corrupt catalog")
	}
	nextSeg := d.U32()
	nextBlk := d.U64()
	n := int(d.U32())
	for i := 0; i < n; i++ {
		id := d.U32()
		sz := d.U64()
		start := d.U64()
		npages := int(d.U32())
		name := d.String()
		if err := d.Err(); err != nil {
			return errors.New("camelot: corrupt catalog: " + err.Error())
		}
		seg := &segment{id: id, name: name, size: sz}
		for p := 0; p < npages; p++ {
			seg.blocks = append(seg.blocks, int(start)+p)
		}
		mo, err := dm.mgr.NewObject(seg)
		if err != nil {
			return err
		}
		seg.mo = mo
		dm.mu.Lock()
		dm.segments[name] = seg
		dm.bySegID[id] = seg
		dm.byObject[mo.Port] = seg
		dm.mu.Unlock()
	}
	if err := d.Err(); err != nil {
		return errors.New("camelot: corrupt catalog: " + err.Error())
	}
	dm.mu.Lock()
	dm.nextSeg = nextSeg
	dm.nextBlk = int(nextBlk)
	dm.mu.Unlock()
	return nil
}
