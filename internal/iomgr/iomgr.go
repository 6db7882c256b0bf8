// Package iomgr owns asynchronous block I/O against real files: the
// storage engine underneath the durable pager backing store and the
// Camelot write-ahead log. Callers submit reads, writes and fsyncs and
// get a completion handle back; a per-file dispatcher batches queued
// submissions toward the backend under a queue-depth limit.
//
// Two backends provide identical semantics:
//
//   - io_uring on Linux (batched SQE submission, completion-driven
//     wakeups, no goroutine per operation);
//   - a portable goroutine worker pool over pread/pwrite/fsync,
//     selected automatically where io_uring is unavailable (non-Linux
//     builds, seccomp-filtered containers, io_uring_disabled sysctls)
//     or explicitly via Options.Backend / IOMGR_BACKEND=pool.
//
// Shared semantics, both backends:
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
//   - Completion order across operations is unspecified.
package iomgr

import (
	"errors"
	"fmt"
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

// Op is one in-flight operation. The submitter owns Buf until the
// operation completes (Await returns, or the Done channel fires).
type Op struct {
	// Kind, Off and Buf describe the request. Fsync ignores Off/Buf.
	Kind OpKind
	Off  int64
	Buf  []byte

	// N and Err are the results, valid after completion.
	N   int
	Err error

	f    *File
	done chan *Op
}

// Done returns the completion channel: the op itself is delivered
// exactly once when it completes.
func (o *Op) Done() <-chan *Op { return o.done }

// Await blocks until the operation completes and returns its results.
func (o *Op) Await() (int, error) {
	<-o.done
	return o.N, o.Err
}

// complete finishes the op and delivers it to the waiter.
func (o *Op) complete(n int, err error) {
	o.N, o.Err = n, err
	f := o.f
	f.stats.inflight.Add(-1)
	f.stats.completed.Add(1)
	f.met.Completed.Inc()
	if err != nil {
		f.stats.errors.Add(1)
		f.met.Errors.Inc()
	} else {
		switch o.Kind {
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
		(*obs)(o)
	}
	o.done <- o
}

// Stats is a snapshot of a file's operation counters.
type Stats struct {
	// Submitted / Inflight / Completed count operations.
	Submitted int64
	Inflight  int64
	Completed int64
	// Batches counts dispatcher rounds toward the backend; Submitted
	// divided by Batches is the achieved batching factor.
	Batches int64
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
	batches      atomic.Int64
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
		Batches:      s.batches.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Fsyncs:       s.fsyncs.Load(),
		Errors:       s.errors.Load(),
	}
}

// Options configures Open.
type Options struct {
	// QueueDepth bounds in-flight operations per file (the per-device
	// limit). 0 means DefaultQueueDepth.
	QueueDepth int
	// Backend forces a backend: "uring", "pool", or "" for automatic
	// (io_uring where it works, pool otherwise). The IOMGR_BACKEND
	// environment variable, when set, overrides "" — CI uses it to
	// exercise the fallback on kernels that do support io_uring.
	Backend string
	// Workers sizes the pool backend (0 means DefaultWorkers). The
	// uring backend ignores it.
	Workers int
	// Create creates the file if absent.
	Create bool
}

// Default tuning. Queue depth caps in-flight ops per file; the batch
// limit caps how many queued submissions one dispatcher round hands the
// backend.
const (
	DefaultQueueDepth = 64
	DefaultWorkers    = 4
	maxBatch          = 32
)

// backend is the submission target behind a File's dispatcher. submit
// receives batches of ops already charged against the queue-depth
// limit; each op must eventually reach op.complete (backends call
// f.finish, which layers the short-I/O semantics on top).
type backend interface {
	name() string
	submit(batch []*Op)
	close()
}

// File is an open iomgr file: a submission queue, a dispatcher
// goroutine batching toward the backend, and completion bookkeeping.
type File struct {
	os      *os.File
	be      backend
	stats   stats
	met     *obs.IOMetrics
	depth   int
	submitq chan *Op
	slots   chan struct{} // queue-depth tokens
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool

	observer atomic.Pointer[func(*Op)]
	fault    atomic.Pointer[faultPlan]
}

// Open opens (optionally creating) path for asynchronous I/O.
func Open(path string, opts Options) (*File, error) {
	flags := os.O_RDWR
	if opts.Create {
		flags |= os.O_CREATE
	}
	fd, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	f := &File{
		os:      fd,
		met:     obs.IO(),
		depth:   depth,
		submitq: make(chan *Op, depth),
		slots:   make(chan struct{}, depth),
	}
	f.be, err = openBackend(f, opts)
	if err != nil {
		fd.Close()
		return nil, err
	}
	f.wg.Add(1)
	go f.dispatch()
	return f, nil
}

// backendChoice resolves the configured backend name: explicit option,
// then the IOMGR_BACKEND environment variable, then automatic.
func backendChoice(opts Options) string {
	if opts.Backend != "" {
		return opts.Backend
	}
	return os.Getenv("IOMGR_BACKEND")
}

// openBackend picks the backend: io_uring where requested or available,
// the worker pool otherwise.
func openBackend(f *File, opts Options) (backend, error) {
	switch choice := backendChoice(opts); choice {
	case "pool":
		return newPoolBackend(f, opts.Workers), nil
	case "uring":
		return newUringBackend(f)
	case "":
		if be, err := newUringBackend(f); err == nil {
			return be, nil
		}
		return newPoolBackend(f, opts.Workers), nil
	default:
		return nil, fmt.Errorf("iomgr: unknown backend %q", choice)
	}
}

// Backend reports which backend serves this file ("uring" or "pool").
func (f *File) Backend() string { return f.be.name() }

// Stats returns a snapshot of the operation counters.
func (f *File) Stats() Stats { return f.stats.snapshot() }

// QueueDepth returns the per-file in-flight limit.
func (f *File) QueueDepth() int { return f.depth }

// SetObserver installs fn to be called on every completion (before the
// waiter is released), or removes it when nil. Tests use it to assert
// operation ordering — e.g. that no data-page write completes before
// the log force covering it.
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

// SyncReadAt is ReadAt + Await.
func (f *File) SyncReadAt(buf []byte, off int64) (int, error) {
	return f.syncOp(OpRead, buf, off)
}

// SyncWriteAt is WriteAt + Await.
func (f *File) SyncWriteAt(buf []byte, off int64) (int, error) {
	return f.syncOp(OpWrite, buf, off)
}

// SyncFsync is Fsync + Await.
func (f *File) SyncFsync() error {
	_, err := f.syncOp(OpFsync, nil, 0)
	return err
}

// opPool recycles the ops of the synchronous calls, each with its
// buffered completion channel.
var opPool = sync.Pool{New: func() any { return &Op{done: make(chan *Op, 1)} }}

// syncOp submits a pooled op, awaits it and recycles it. The op is the
// caller's alone again once Await returns: complete delivers it as its
// last act, after the observer has run, and neither the dispatcher nor a
// backend reads an op it has completed.
func (f *File) syncOp(kind OpKind, buf []byte, off int64) (int, error) {
	op := opPool.Get().(*Op)
	op.Kind, op.Off, op.Buf = kind, off, buf
	n, err := f.submit(op).Await()
	*op = Op{done: op.done}
	opPool.Put(op)
	return n, err
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

// submit enqueues op toward the dispatcher.
func (f *File) submit(op *Op) *Op {
	op.f = f
	if op.done == nil {
		op.done = make(chan *Op, 1)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.stats.submitted.Add(1)
		f.stats.inflight.Add(1)
		f.met.Submitted.Inc()
		op.complete(0, ErrClosed)
		return op
	}
	f.stats.submitted.Add(1)
	f.stats.inflight.Add(1)
	f.met.Submitted.Inc()
	f.submitq <- op
	f.mu.Unlock()
	return op
}

// dispatch drains the submission queue in batches: it blocks for one
// op, then opportunistically folds every already-queued op (up to
// maxBatch and the free queue-depth slots) into the same backend
// submission.
func (f *File) dispatch() {
	defer f.wg.Done()
	batch := make([]*Op, 0, maxBatch)
	for op := range f.submitq {
		batch = append(batch[:0], op)
		f.slots <- struct{}{}
	fold:
		for len(batch) < maxBatch {
			select {
			case f.slots <- struct{}{}:
			default:
				break fold // queue depth exhausted; ship what we have
			}
			select {
			case next, ok := <-f.submitq:
				if !ok {
					<-f.slots
					break fold
				}
				batch = append(batch, next)
			default:
				<-f.slots
				break fold
			}
		}
		// Fault injection happens here, BEFORE the backend: a faulted
		// op never reaches the device — the bytes of a "failed" write
		// are genuinely not on disk, which is what crash-recovery
		// tests depend on.
		if plan := f.fault.Load(); plan != nil {
			live := batch[:0]
			for _, op := range batch {
				if err := plan.check(op); err != nil {
					f.finish(op, 0, err)
					continue
				}
				live = append(live, op)
			}
			batch = live
		}
		if len(batch) == 0 {
			continue
		}
		f.stats.batches.Add(1)
		f.met.Batches.Inc()
		f.be.submit(batch)
	}
	f.be.close()
}

// finish applies the shared completion semantics on behalf of a
// backend: EOF zero-fill for reads, short-write errors, then
// op.complete. n < 0 carries err.
func (f *File) finish(op *Op, n int, err error) {
	<-f.slots
	if n < 0 {
		n = 0
	}
	switch op.Kind {
	case OpRead:
		if err == nil && n < len(op.Buf) {
			// Read past EOF: the tail of a fresh device reads as
			// zeroes, like machine.Disk's never-written blocks.
			zero(op.Buf[n:])
			n = len(op.Buf)
		}
	case OpWrite:
		if err == nil && n < len(op.Buf) {
			err = fmt.Errorf("iomgr: short write (%d of %d bytes)", n, len(op.Buf))
		}
	}
	if err != nil {
		n = 0
	}
	op.complete(n, err)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Close drains in-flight operations, shuts the backend down and closes
// the file. Further submissions complete with ErrClosed.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	close(f.submitq)
	f.mu.Unlock()
	f.wg.Wait() // dispatcher done; backend close drained in-flight ops
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
