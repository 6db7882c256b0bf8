// Package iomgr owns block I/O against real files: the storage engine
// underneath the durable pager backing store and the Camelot write-ahead
// log.
//
// One function performs an operation: the fault-injection check, the
// pread/pwrite/fsync, the completion semantics below, the counters and
// the observer. Callers reach it in one of two ways:
//
//   - synchronously (SyncReadAt, SyncWriteAt, SyncFsync), on the
//     caller's own goroutine — no hand-off to another goroutine;
//   - asynchronously (ReadAt, WriteAt, Fsync), through a fixed set of
//     worker goroutines per file reading one bounded queue; the caller
//     gets an Op back and Awaits it — the WAL's appends, which a later
//     force awaits.
//
// Semantics, both ways:
//
//   - Reads past end-of-file return the full buffer with the tail
//     zero-filled (a fresh device reads as zeroes — the machine.Disk
//     contract the pager stack is written against).
//   - A write completes only when the whole buffer is written; short
//     writes surface as errors.
//   - Fsync completes after every write that COMPLETED before the
//     fsync was submitted is durable. Callers wanting a barrier await
//     their writes first, then fsync — the WAL's group-commit
//     discipline.
//   - An operation failed by InjectFault never reaches the file.
//   - At most queueDepth operations per file are in flight, sync and
//     async together.
//   - Close completes every operation submitted before it; later ones
//     fail with ErrClosed.
//   - Completion order across asynchronous operations is unspecified.
package iomgr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// OpKind discriminates submitted operations.
type OpKind uint8

const (
	// OpRead is a positioned read.
	OpRead OpKind = iota + 1
	// OpWrite is a positioned write.
	OpWrite
	// OpFsync is a durability barrier.
	OpFsync
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFsync:
		return "fsync"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// ErrClosed is returned by operations submitted after Close.
var ErrClosed = errors.New("iomgr: file closed")

// Per-file tuning: queueDepth caps the operations in flight on one file,
// sync and async together; workers serve the asynchronous queue.
const (
	queueDepth = 64
	workers    = 4
)

// Op is one operation. The submitter owns Buf until the operation
// completes (Await returns).
type Op struct {
	// Kind, Off and Buf describe the request. Fsync ignores Off/Buf.
	Kind OpKind
	Off  int64
	Buf  []byte

	// N and Err are the results, valid after completion.
	N   int
	Err error

	done sync.WaitGroup // asynchronous ops: held until completion
}

// Await blocks until the operation completes and returns its results.
func (o *Op) Await() (int, error) {
	o.done.Wait()
	return o.N, o.Err
}

// Stats is a snapshot of a file's operation counters.
type Stats struct {
	// Submitted / Inflight / Completed count operations.
	Submitted int64
	Inflight  int64
	Completed int64
	// BytesRead and BytesWritten count successfully transferred bytes.
	BytesRead    int64
	BytesWritten int64
	// Fsyncs counts completed durability barriers.
	Fsyncs int64
	// Errors counts operations that completed with an error.
	Errors int64
}

type stats struct {
	submitted    atomic.Int64
	inflight     atomic.Int64
	completed    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	fsyncs       atomic.Int64
	errors       atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Submitted:    s.submitted.Load(),
		Inflight:     s.inflight.Load(),
		Completed:    s.completed.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Fsyncs:       s.fsyncs.Load(),
		Errors:       s.errors.Load(),
	}
}

// Options configures Open.
type Options struct {
	// Backend names the I/O mechanism: "" or "pool" (positioned
	// reads and writes on the caller's goroutine or a worker's); any
	// other name is refused.
	Backend string
	// Create creates the file if absent.
	Create bool
}

// File is an open iomgr file: an in-flight limit, the asynchronous
// queue with its workers, and the counters.
type File struct {
	os    *os.File
	stats stats
	met   *obs.IOMetrics
	slots chan struct{} // in-flight tokens, one per op being performed
	// work holds asynchronous ops, each holding a token, so a send to
	// it (capacity queueDepth) never blocks.
	work chan *Op

	mu      sync.Mutex     // orders admission against Close
	closed  bool           // under mu
	syncs   sync.WaitGroup // admitted synchronous ops
	workers sync.WaitGroup

	observer atomic.Pointer[func(*Op)]
	fault    atomic.Pointer[faultPlan]
}

// Open opens (optionally creating) path.
func Open(path string, opts Options) (*File, error) {
	if opts.Backend != "" && opts.Backend != "pool" {
		return nil, fmt.Errorf("iomgr: unknown backend %q", opts.Backend)
	}
	flags := os.O_RDWR
	if opts.Create {
		flags |= os.O_CREATE
	}
	fd, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	f := &File{
		os:    fd,
		met:   obs.IO(),
		slots: make(chan struct{}, queueDepth),
		work:  make(chan *Op, queueDepth),
	}
	f.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go f.worker()
	}
	return f, nil
}

// Stats returns a snapshot of the operation counters.
func (f *File) Stats() Stats { return f.stats.snapshot() }

// SetObserver installs fn to be called with a copy of every completed
// op (before the waiter is released), or removes it when nil. It runs on
// the goroutine that performed the op: the caller's for a sync op, a
// worker's for an async one. Tests use it to assert operation ordering
// — e.g. that no data-page write completes before the log force
// covering it.
func (f *File) SetObserver(fn func(*Op)) {
	if fn == nil {
		f.observer.Store(nil)
		return
	}
	f.observer.Store(&fn)
}

// ReadAt submits an asynchronous positioned read filling buf.
func (f *File) ReadAt(buf []byte, off int64) *Op {
	return f.submit(&Op{Kind: OpRead, Off: off, Buf: buf})
}

// WriteAt submits an asynchronous positioned write of buf.
func (f *File) WriteAt(buf []byte, off int64) *Op {
	return f.submit(&Op{Kind: OpWrite, Off: off, Buf: buf})
}

// Fsync submits a durability barrier covering every completed write.
func (f *File) Fsync() *Op {
	return f.submit(&Op{Kind: OpFsync})
}

// SyncReadAt reads into buf on the calling goroutine.
func (f *File) SyncReadAt(buf []byte, off int64) (int, error) {
	return f.syncOp(OpRead, buf, off)
}

// SyncWriteAt writes buf on the calling goroutine.
func (f *File) SyncWriteAt(buf []byte, off int64) (int, error) {
	return f.syncOp(OpWrite, buf, off)
}

// SyncFsync is a durability barrier on the calling goroutine.
func (f *File) SyncFsync() error {
	_, err := f.syncOp(OpFsync, nil, 0)
	return err
}

// syncOp performs an op on the caller's goroutine. The op lives on the
// caller's stack: nothing below keeps a pointer to it.
func (f *File) syncOp(kind OpKind, buf []byte, off int64) (int, error) {
	op := Op{Kind: kind, Off: off, Buf: buf}
	if f.admit(nil) {
		f.perform(&op)
		<-f.slots
		f.syncs.Done()
	} else {
		f.complete(&op, 0, ErrClosed)
	}
	return op.N, op.Err
}

// submit admits op and queues it for a worker; after Close the op comes
// back already failed with ErrClosed.
func (f *File) submit(op *Op) *Op {
	op.done.Add(1)
	if !f.admit(op) {
		f.complete(op, 0, ErrClosed)
		op.done.Done()
	}
	return op
}

// admit takes an in-flight token and counts one op submitted. Once Close
// has begun it gives the token back and reports false. Otherwise the
// asynchronous op q is on the queue, or, for a synchronous caller (q ==
// nil), the op is registered with Close's drain. The token is taken
// before mu, so nothing blocks while mu is held and Close never waits
// behind a full file.
func (f *File) admit(q *Op) bool {
	f.slots <- struct{}{}
	f.stats.submitted.Add(1)
	f.stats.inflight.Add(1)
	f.met.Submitted.Inc()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.slots
		return false
	}
	if q != nil {
		f.work <- q // never blocks: each queued op holds one of queueDepth tokens
	} else {
		f.syncs.Add(1)
	}
	f.mu.Unlock()
	return true
}

// worker performs queued ops until Close closes the queue.
func (f *File) worker() {
	defer f.workers.Done()
	for op := range f.work {
		f.perform(op)
		<-f.slots
		op.done.Done()
	}
}

// perform carries op out against the file on the calling goroutine and
// completes it. The fault check comes first: a faulted op never reaches
// the file — the bytes of a "failed" write are genuinely not on disk,
// which is what crash-recovery tests depend on.
func (f *File) perform(op *Op) {
	var n int
	var err error
	if plan := f.fault.Load(); plan != nil {
		err = plan.check(op)
	}
	if err == nil {
		switch op.Kind {
		case OpRead:
			n, err = f.os.ReadAt(op.Buf, op.Off)
			if err == io.EOF {
				// Read past EOF: the tail of a fresh device reads as
				// zeroes, like machine.Disk's never-written blocks.
				clear(op.Buf[n:])
				n, err = len(op.Buf), nil
			}
		case OpWrite:
			n, err = f.os.WriteAt(op.Buf, op.Off)
			if err == nil && n < len(op.Buf) {
				err = fmt.Errorf("iomgr: short write (%d of %d bytes)", n, len(op.Buf))
			}
		case OpFsync:
			err = f.os.Sync()
		}
	}
	f.complete(op, n, err)
}

// complete records op's results, counts it and runs the observer on a
// copy, so that a synchronous op stays on its caller's stack.
func (f *File) complete(op *Op, n int, err error) {
	if err != nil {
		n = 0
	}
	op.N, op.Err = n, err
	f.stats.inflight.Add(-1)
	f.stats.completed.Add(1)
	f.met.Completed.Inc()
	if err != nil {
		f.stats.errors.Add(1)
		f.met.Errors.Inc()
	} else {
		switch op.Kind {
		case OpRead:
			f.stats.bytesRead.Add(int64(n))
			f.met.BytesRead.Add(uint64(n))
		case OpWrite:
			f.stats.bytesWritten.Add(int64(n))
			f.met.BytesWritten.Add(uint64(n))
		case OpFsync:
			f.stats.fsyncs.Add(1)
			f.met.Fsyncs.Inc()
		}
	}
	if obs := f.observer.Load(); obs != nil {
		(*obs)(&Op{Kind: op.Kind, Off: op.Off, Buf: op.Buf, N: op.N, Err: op.Err})
	}
}

// Size returns the current file size.
func (f *File) Size() (int64, error) {
	st, err := f.os.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate sets the file size (used to preallocate volumes).
func (f *File) Truncate(size int64) error { return f.os.Truncate(size) }

// Close completes every op admitted before it — the workers drain the
// queue and exit, synchronous callers finish — and closes the file.
// Later ops complete with ErrClosed.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	close(f.work)
	f.mu.Unlock()
	f.workers.Wait()
	f.syncs.Wait()
	return f.os.Close()
}

// --- fault injection (tests) ------------------------------------------------

// faultPlan makes operations of one kind start failing after a
// countdown — the crash-injection hook for recovery tests.
type faultPlan struct {
	kind  OpKind
	after atomic.Int64
	err   error
}

func (p *faultPlan) check(op *Op) error {
	if op.Kind != p.kind {
		return nil
	}
	if p.after.Add(-1) < 0 {
		return p.err
	}
	return nil
}

// InjectFault makes every operation of the given kind fail with err
// after the next n of that kind succeed. A nil err clears the plan.
// Test hook: crash-recovery tests use it to kill the WAL mid-commit.
func (f *File) InjectFault(kind OpKind, n int, err error) {
	if err == nil {
		f.fault.Store(nil)
		return
	}
	plan := &faultPlan{kind: kind, err: err}
	plan.after.Store(int64(n))
	f.fault.Store(plan)
}
