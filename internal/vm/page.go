package vm

import "repro/internal/machine"

// pageQueue identifies which pageout queue a page is on (§5.4).
type pageQueue uint8

const (
	queueNone pageQueue = iota
	queueActive
	queueInactive
)

// Page is the resident page structure (§5.3). Each corresponds to a page
// of physical memory and vice versa. It records the memory object and
// offset the page caches, the access permitted to the page by the data
// manager, and the reference/modification information the (simulated)
// hardware provides. Pages chain through the VP hash table, their
// object's page list, and the pageout queues — all intrusively, as in
// the original system.
type Page struct {
	object *Object
	offset uint64

	// frame is the physical frame caching the data; InvalidFrame while
	// the page is absent (requested from its pager but not yet
	// provided).
	frame machine.Frame

	// busy marks a page in transition (being filled or cleaned);
	// fault handlers must wait for it.
	busy bool
	// absent marks a busy page with no data yet (pager request
	// outstanding).
	absent bool
	// fictitious marks a placeholder that must never reach the pmap.
	// dirty records modification since the last clean.
	dirty bool
	// referenced is the simulated hardware reference bit.
	referenced bool
	// lock is the access the DATA MANAGER has prohibited
	// (pager_data_lock): a page with lock=ProtWrite may be mapped
	// read-only at most.
	lock Prot
	// wired counts non-pageable holds on the page.
	wired int
	// pageError is set when a fault on this page must fail (memory
	// failure, §6.2.1).
	pageError error
	// gen counts the lives of this structure: freePageLocked bumps it as
	// it recycles the page, so whoever waited holding p tells its page
	// from a new one that reuses the structure, even for the same
	// object and offset.
	gen uint32

	// hnext chains the VP hash bucket.
	hnext *Page
	// objNext/objPrev chain the object's resident-page list.
	objNext, objPrev *Page
	// qNext/qPrev chain the pageout queue; queue says which.
	qNext, qPrev *Page
	queue        pageQueue
}

// Object returns the memory object this page caches.
func (p *Page) Object() *Object { return p.object }

// Offset returns the page's offset within its object.
func (p *Page) Offset() uint64 { return p.offset }

// vpHash is the virtual-to-physical table (§5.3): fast resident-page
// lookup by (object, offset), implemented as a hash table chained through
// the resident page structures. Guarded by the System lock.
type vpHash struct {
	buckets []*Page
}

func newVPHash(nbuckets int) *vpHash {
	if nbuckets < 16 {
		nbuckets = 16
	}
	return &vpHash{buckets: make([]*Page, nbuckets)}
}

func (h *vpHash) bucket(obj *Object, offset uint64) int {
	v := obj.id*2654435761 + offset>>6
	return int(v % uint64(len(h.buckets)))
}

// lookup finds the resident page for (obj, offset), nil if not cached.
func (h *vpHash) lookup(obj *Object, offset uint64) *Page {
	for p := h.buckets[h.bucket(obj, offset)]; p != nil; p = p.hnext {
		if p.object == obj && p.offset == offset {
			return p
		}
	}
	return nil
}

// insert adds a page; (obj, offset) must not already be present.
func (h *vpHash) insert(p *Page) {
	b := h.bucket(p.object, p.offset)
	p.hnext = h.buckets[b]
	h.buckets[b] = p
}

// remove deletes a page from its bucket.
func (h *vpHash) remove(p *Page) {
	b := h.bucket(p.object, p.offset)
	for pp := &h.buckets[b]; *pp != nil; pp = &(*pp).hnext {
		if *pp == p {
			*pp = p.hnext
			p.hnext = nil
			return
		}
	}
}

// pageList is an intrusive FIFO/LRU queue of pages (§5.4): the active
// queue keeps pages in least-recently-used order, the inactive queue
// holds pages being prepared for pageout.
type pageList struct {
	head, tail *Page
	count      int
	kind       pageQueue
}

// pushTail appends p (most recently used end).
func (l *pageList) pushTail(p *Page) {
	if p.queue != queueNone {
		panic("vm: page already queued")
	}
	p.queue = l.kind
	p.qPrev = l.tail
	p.qNext = nil
	if l.tail != nil {
		l.tail.qNext = p
	} else {
		l.head = p
	}
	l.tail = p
	l.count++
}

// popHead removes the least recently used page, nil if empty.
func (l *pageList) popHead() *Page {
	p := l.head
	if p == nil {
		return nil
	}
	l.remove(p)
	return p
}

// remove unlinks p from this list.
func (l *pageList) remove(p *Page) {
	if p.queue != l.kind {
		panic("vm: page not on this queue")
	}
	if p.qPrev != nil {
		p.qPrev.qNext = p.qNext
	} else {
		l.head = p.qNext
	}
	if p.qNext != nil {
		p.qNext.qPrev = p.qPrev
	} else {
		l.tail = p.qPrev
	}
	p.qNext, p.qPrev = nil, nil
	p.queue = queueNone
	l.count--
}
