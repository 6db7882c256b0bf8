package camelot

import (
	"sync"

	"repro/internal/iomgr"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pager"
)

// WAL is the disk manager's write-ahead log device: a block-addressed
// record store (log block b holds the record with LSN b+1) with a
// durability barrier. Two implementations share the type:
//
//   - a simulated machine.Disk (NewSimWAL), where Write is already
//     "durable" — the historical behaviour of the package, used by the
//     deterministic-clock experiments; and
//   - a real file through the I/O manager (OpenWAL), where AppendRun
//     submits one asynchronous write per run of records and Force is a
//     group-commit fsync: one leader awaits the outstanding writes and
//     issues ONE fsync covering every concurrent committer; followers
//     just wait for the durable LSN to pass theirs.
//
// The disk manager's service loop only appends: each commit's records
// go out as one run, and the loop moves on. Its committer goroutine
// calls Force and sends the commit replies. Force merges commits only
// when more than one is queued behind an fsync in flight; with two
// clients the fsyncs alternate, so Fsyncs per commit stays near 1 and
// the gain is overlap — one client's records are written while the
// other's fsync runs.
type WAL struct {
	dev  pager.BlockStore // record slots (simulated path)
	file *iomgr.File      // real-file path (nil for simulated)

	blockSize int
	blocks    int

	mu      sync.Mutex
	pending []*iomgr.Op // appended record writes not yet covered by an fsync
	written uint64      // highest LSN appended to the device
	durable uint64      // highest LSN covered by a completed fsync
	forcing bool        // a leader is mid-fsync
	sleep   []chan struct{}
	err     error // sticky device failure: the log is dead

	appends int64
	forces  int64
	fsyncs  int64

	met *obs.WALMetrics
}

// WALStats counts log device activity.
type WALStats struct {
	// Appends is the number of records written to the device.
	Appends int64
	// Forces counts durability-barrier requests (Force calls).
	Forces int64
	// Fsyncs counts actual fsync operations; Fsyncs < Forces means
	// group commit batched concurrent committers onto shared fsyncs.
	Fsyncs int64
	// Durable is the highest LSN guaranteed on stable storage.
	Durable uint64
}

// NewSimWAL wraps a simulated disk as a log device (writes are
// instantly durable, as machine.Disk has always behaved).
func NewSimWAL(d *machine.Disk) *WAL {
	return &WAL{dev: d, blockSize: d.BlockSize(), blocks: d.Blocks(), met: obs.WAL()}
}

// OpenWAL opens (creating if needed) a real-file log of nblocks record
// slots of blockSize bytes, all I/O through the I/O manager.
func OpenWAL(path string, nblocks, blockSize int, opts iomgr.Options) (*WAL, error) {
	opts.Create = true
	f, err := iomgr.Open(path, opts)
	if err != nil {
		return nil, err
	}
	return &WAL{file: f, blockSize: blockSize, blocks: nblocks, met: obs.WAL()}, nil
}

// BlockSize returns the record slot size (bounds MaxUpdate).
func (w *WAL) BlockSize() int { return w.blockSize }

// Blocks returns the log capacity in record slots.
func (w *WAL) Blocks() int { return w.blocks }

// File exposes the underlying iomgr file (nil for simulated logs);
// tests use it for fault injection and stats.
func (w *WAL) File() *iomgr.File { return w.file }

// Append writes the encoded record for lsn to its slot: a run of one.
func (w *WAL) Append(lsn uint64, block []byte) { w.AppendRun(lsn, 1, block) }

// AppendRun writes n encoded records, LSNs first..first+n-1, to their
// consecutive slots; buf holds the n slots back to back. On the real
// path the run is ONE asynchronous write — it becomes durable (and its
// error surfaces) at the next Force that covers it. On the simulated
// disk each slot is its own device write, as the virtual clock charges
// per block. buf must not be reused by the caller.
func (w *WAL) AppendRun(first uint64, n int, buf []byte) {
	last := first + uint64(n) - 1
	w.mu.Lock()
	w.appends += int64(n)
	w.met.Appends.Add(uint64(n))
	if last > w.written {
		w.written = last
	}
	if w.file == nil {
		w.mu.Unlock()
		for i := 0; i < n; i++ {
			w.dev.Write(int(first-1)+i, buf[i*w.blockSize:])
		}
		return
	}
	op := w.file.WriteAt(buf[:n*w.blockSize], int64(first-1)*int64(w.blockSize))
	w.pending = append(w.pending, op)
	w.mu.Unlock()
}

// Force blocks until every record with LSN <= lsn is on stable
// storage, or returns the device error that prevents it. Concurrent
// forces group-commit: one leader fsyncs for everybody whose records
// were already appended.
func (w *WAL) Force(lsn uint64) error {
	if w.file == nil {
		return nil // simulated writes are durable at Append
	}
	w.mu.Lock()
	w.forces++
	w.met.Forces.Inc()
	for {
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return err
		}
		if lsn <= w.durable {
			w.mu.Unlock()
			return nil
		}
		if !w.forcing {
			// Become the leader: take everything appended so far,
			// await the writes, fsync once.
			w.forcing = true
			pending := w.pending
			w.pending = nil
			target := w.written
			w.mu.Unlock()

			var err error
			for _, op := range pending {
				if _, e := op.Await(); e != nil && err == nil {
					err = e
				}
			}
			if err == nil {
				err = w.file.SyncFsync()
			}

			w.mu.Lock()
			w.fsyncs++
			w.met.Fsyncs.Inc()
			if err != nil {
				w.err = err // the log device failed; every commit from here fails
			} else if target > w.durable {
				w.durable = target
			}
			w.forcing = false
			for _, ch := range w.sleep {
				close(ch)
			}
			w.sleep = nil
			continue // re-check our own lsn (a follower may have appended past target)
		}
		// Follow: sleep until the current leader finishes, then re-check.
		ch := make(chan struct{})
		w.sleep = append(w.sleep, ch)
		w.mu.Unlock()
		<-ch
		w.mu.Lock()
	}
}

// Read copies the record slot for log block b into dst (recovery
// scan). Slots never written read back zeroed, which decodeRecord
// rejects — that is how the scan finds the end of the log.
func (w *WAL) Read(block int, dst []byte) {
	if w.file == nil {
		w.dev.Read(block, dst)
		return
	}
	if _, err := w.file.SyncReadAt(dst[:w.blockSize], int64(block)*int64(w.blockSize)); err != nil {
		panic("camelot: log read: " + err.Error())
	}
}

// Durable returns the highest LSN guaranteed on stable storage (for
// the simulated path, everything appended).
func (w *WAL) Durable() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return w.written
	}
	return w.durable
}

// Stats snapshots the log device counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.durable
	if w.file == nil {
		d = w.written
	}
	return WALStats{Appends: w.appends, Forces: w.forces, Fsyncs: w.fsyncs, Durable: d}
}

// scan reads the log from the device and returns the records in LSN
// order, stopping at the first unwritten or corrupt slot. Reopen uses
// it to find the durable tail after a crash.
func (w *WAL) scan() []record {
	var recs []record
	buf := make([]byte, w.blockSize)
	for blk := 0; blk < w.blocks; blk++ {
		w.Read(blk, buf)
		r, ok := decodeRecord(buf)
		if !ok || r.lsn != uint64(blk+1) {
			break
		}
		recs = append(recs, r)
	}
	return recs
}

// Close releases the real-file log (no-op for simulated).
func (w *WAL) Close() error {
	if w.file == nil {
		return nil
	}
	return w.file.Close()
}
