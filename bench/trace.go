package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/mach"
)

// The span recorder of the traced run. Spans are taken from the
// benchmark's own files, around the calls it makes into each layer; the
// program itself is not instrumented. They stay in memory until the
// workload ends and are then written to trace-<workload>.json.
//
// Span IDs carry their own structure, so no goroutine has to ask another
// for an ID: an operation of client c with sequence number n has
// op = c<<40 | n; its own span is op<<spanIndexBits, and the k-th call it
// makes is op<<spanIndexBits | k. A span recorded off the client's
// goroutine (the echo handler, the BlockStore wrappers) names its parent
// the same way or through tracer.cur.

const (
	spanIndexBits = 4
	sideSpanBit   = uint64(1) << 63
)

type spanName uint8

const (
	spanOp spanName = iota
	spanRPCInvoke
	spanRPCHandler
	spanFSRead
	spanFSWrite
	spanVMRead
	spanVMWrite
	spanVMAlloc
	spanVMDealloc
	spanCamelotWrite
	spanCamelotCommit
	spanPagerStoreRead
	spanPagerStoreWrite
	spanVolumeRead
	spanVolumeWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "rpc.invoke", "rpc.handler", "fs.read_call", "fs.write_call",
	"vm.read", "vm.write", "vm.alloc", "vm.dealloc",
	"camelot.write", "camelot.commit",
	"pager.store_read", "pager.store_write", "iomgr.volume_read", "iomgr.volume_write",
}

// spanMetrics are the per-layer metrics that are the median duration of
// one kind of span.
var spanMetrics = []struct {
	metric string
	span   spanName
}{
	{"rpc.handler_us", spanRPCHandler},
	{"vm.read_us", spanVMRead},
	{"vm.dealloc_us", spanVMDealloc},
	{"pager.store_read_us", spanPagerStoreRead},
	{"pager.store_write_us", spanPagerStoreWrite},
	{"iomgr.volume_read_us", spanVolumeRead},
	{"iomgr.volume_write_us", spanVolumeWrite},
	{"camelot.write_us", spanCamelotWrite},
	{"camelot.commit_us", spanCamelotCommit},
	{"fs.read_call_us", spanFSRead},
	{"fs.write_call_us", spanFSWrite},
}

type span struct {
	op, id, parent uint64
	name           spanName
	start, end     int64 // ns since the tracer's epoch
}

// tracer is shared by everything that records spans in one workload.
type tracer struct {
	epoch time.Time
	// on is true while a traced round runs; keepEvery thins the traced
	// operations so that a fast workload keeps tens of thousands of
	// operations in memory, not millions.
	on        atomic.Bool
	keepEvery uint64
	// cur is the innermost open call span of a single-client workload:
	// the BlockStore wrappers run on the default pager's goroutine
	// while that client waits in a fault, and take it as their parent.
	cur atomic.Uint64

	mu       sync.Mutex
	side     []span // spans recorded off the client goroutines
	nextSide uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), keepEvery: 1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// keeps reports whether the spans of operation op are recorded now.
func (t *tracer) keeps(op uint64) bool {
	return t != nil && t.on.Load() && (op&(1<<40-1))%t.keepEvery == 0
}

// sideSpan records a span taken off the client goroutines, under an ID
// from reserve (0 reserves one now).
func (t *tracer) sideSpan(s span) {
	s.end = t.now()
	t.mu.Lock()
	if s.id == 0 {
		t.nextSide++
		s.id = sideSpanBit | t.nextSide
	}
	t.side = append(t.side, s)
	t.mu.Unlock()
}

// reserve hands out a side-span ID before the span ends, so that spans
// nested in it can name it as their parent.
func (t *tracer) reserve() uint64 {
	t.mu.Lock()
	t.nextSide++
	id := sideSpanBit | t.nextSide
	t.mu.Unlock()
	return id
}

// openSpan is a call span in flight on a client goroutine.
type openSpan struct {
	id    uint64
	name  spanName
	start int64
}

// begin opens the next call span of the client's current operation; it
// costs one branch when the operation is not being traced.
func (c *client) begin(name spanName) openSpan {
	if !c.keep {
		return openSpan{}
	}
	c.calls++
	s := openSpan{id: c.op<<spanIndexBits | c.calls, name: name, start: c.tr.now()}
	if c.single {
		c.tr.cur.Store(s.id)
	}
	return s
}

func (c *client) end(s openSpan) {
	if s.id == 0 {
		return
	}
	c.spans = append(c.spans, span{op: c.op, id: s.id, parent: c.op << spanIndexBits, name: s.name, start: s.start, end: c.tr.now()})
	if c.single {
		c.tr.cur.Store(0)
	}
}

// timedStore is the timing BlockStore wrapper of the traced run. Two are
// interposed: one between the default pager and the FramePool, one
// between the FramePool and the FileVolume. The inner one finds its
// parent in the outer one's open span: the default pager serves one
// request at a time, so at most one outer span is open. A store call
// made while no traced operation waits for it is not recorded.
type timedStore struct {
	mach.BlockStore
	tr          *tracer
	read, write spanName
	outer       *timedStore   // nil for the outer wrapper itself
	open        atomic.Uint64 // ID of this wrapper's span in flight
}

func (s *timedStore) Read(block int, dst []byte) {
	sp := s.enter(s.read)
	s.BlockStore.Read(block, dst)
	s.leave(sp)
}

func (s *timedStore) Write(block int, src []byte) {
	sp := s.enter(s.write)
	s.BlockStore.Write(block, src)
	s.leave(sp)
}

func (s *timedStore) enter(name spanName) span {
	parent := s.tr.cur.Load()
	if s.outer != nil {
		parent = s.outer.open.Load()
	}
	if !s.tr.on.Load() || parent == 0 {
		return span{}
	}
	sp := span{id: s.tr.reserve(), parent: parent, name: name, start: s.tr.now()}
	s.open.Store(sp.id)
	return sp
}

func (s *timedStore) leave(sp span) {
	if sp.id == 0 {
		return
	}
	s.open.Store(0)
	s.tr.sideSpan(sp)
}

// spanStats is what the per-layer metrics and the share table need from
// one span name.
type spanStats struct {
	count  int
	p50Us  float64 // median duration
	meanUs float64
	selfUs float64 // median of duration minus the part child spans cover
	selfNs int64   // total self time
}

// analyse resolves inner spans' operations and computes per-name
// statistics. Self time is a span's duration minus the union of the
// intervals its children cover, clipped to the span.
func analyse(spans []span) [numSpanNames]spanStats {
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].id] = i
	}
	children := make(map[uint64][]int)
	for i := range spans {
		s := &spans[i]
		// A wrapper span learns its operation from its ancestors: the
		// first one recorded on a client goroutine carries it in its ID.
		for p := s.parent; s.op == 0 && p != 0; {
			if p&sideSpanBit == 0 {
				s.op = p >> spanIndexBits
			} else if j, ok := byID[p]; ok {
				p = spans[j].parent
				continue
			}
			break
		}
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	var durs, selfs [numSpanNames][]float64
	var out [numSpanNames]spanStats
	for i := range spans {
		s := &spans[i]
		dur := s.end - s.start
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := dur - covered
		durs[s.name] = append(durs[s.name], float64(dur)/1e3)
		selfs[s.name] = append(selfs[s.name], float64(self)/1e3)
		out[s.name].selfNs += self
	}
	for n := range out {
		if len(durs[n]) == 0 {
			continue
		}
		out[n].count = len(durs[n])
		out[n].meanUs = mean(durs[n])
		out[n].p50Us = median(durs[n])
		out[n].selfUs = median(selfs[n])
	}
	return out
}

// writeTrace writes the spans as one JSON document, a span per line.
func writeTrace(path, workload string, seed int64, keepEvery uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"keep_every\":%d,\"unit\":\"ns\",\"spans\":[", workload, seed, keepEvery)
	for i, s := range spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s\n{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start\":%d,\"end\":%d}",
			sep, s.op, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
