package vm

import (
	"sort"
	"sync"
)

// Entry is one valid address range in an address map, mapping the range
// to a memory object (directly) or to a second-level sharing map (§5.1).
// Per-task attributes — protection and inheritance — live here in the
// top-level entry.
type Entry struct {
	start, end uint64 // [start, end)
	prot       Prot
	maxProt    Prot
	inherit    Inherit

	// Exactly one of object / sharing is non-nil for top-level
	// entries; sharing-map entries always reference objects.
	object *Object
	// offset is the object offset corresponding to start.
	offset  uint64
	sharing *shareMap

	// needsCopy marks a copy-on-write entry: the first write fault
	// interposes a shadow object (§5.5 "copy-on-write").
	needsCopy bool
}

// reserved reports whether e is a reservation: an entry with nothing
// behind it, which CopyRegionTo holds a destination range with while it
// builds the real entries. The range is taken, but not valid memory.
func (e *Entry) reserved() bool { return e.object == nil && e.sharing == nil }

// shareMap is a second-level sharing map: the object-holding map that
// top-level entries of several tasks reference after read/write
// inheritance, so that changes to the virtual memory itself are seen by
// every sharer (§5.1). Entries are addressed by the original virtual
// addresses, which all sharers have in common.
type shareMap struct {
	mu      sync.Mutex
	entries []*Entry
	refs    int
}

// Map is a task address space: an ordered collection of valid memory
// regions (§3.3), with its own pmap for hardware translations.
type Map struct {
	sys  *System
	mu   sync.Mutex
	pmap *Pmap

	entries []*Entry // sorted by start, non-overlapping
	lo, hi  uint64   // allocatable range
}

// RegionInfo describes one region for vm_regions (Table 3-3).
type RegionInfo struct {
	Start    uint64
	Size     uint64
	Prot     Prot
	MaxProt  Prot
	Inherit  Inherit
	ObjectID uint64 // identity of the backing object (0 if shared)
	Offset   uint64
	Shared   bool // backed through a sharing map
}

// NewMap creates an empty address map covering [lo, hi). Both bounds must
// be page aligned.
func (s *System) NewMap(lo, hi uint64) *Map {
	if lo%s.PageSize() != 0 || hi%s.PageSize() != 0 || hi <= lo {
		panic("vm: bad map bounds")
	}
	m := &Map{sys: s, lo: lo, hi: hi}
	s.mu.Lock()
	m.pmap = s.newPmap()
	s.mu.Unlock()
	return m
}

// Bounds returns the allocatable address range.
func (m *Map) Bounds() (lo, hi uint64) { return m.lo, m.hi }

// --- entry list helpers (m.mu held) --------------------------------------

// entryIndex returns the index of the entry containing addr, or -1 and
// the insertion index.
func (m *Map) entryIndex(addr uint64) (int, int) {
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].end > addr
	})
	if i < len(m.entries) && m.entries[i].start <= addr {
		return i, i
	}
	return -1, i
}

func (m *Map) lookupEntry(addr uint64) *Entry {
	i, _ := m.entryIndex(addr)
	if i < 0 {
		return nil
	}
	return m.entries[i]
}

// insertEntry adds e keeping the list sorted. The range must be free.
func (m *Map) insertEntry(e *Entry) {
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].start >= e.start
	})
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// rangeFree reports whether [start, end) overlaps no entry.
func (m *Map) rangeFree(start, end uint64) bool {
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].end > start
	})
	return i >= len(m.entries) || m.entries[i].start >= end
}

// findSpace locates a free range of the given size (first fit).
func (m *Map) findSpace(size uint64) (uint64, error) {
	addr := m.lo
	for _, e := range m.entries {
		if e.start >= addr && e.start-addr >= size {
			return addr, nil
		}
		if e.end > addr {
			addr = e.end
		}
	}
	if m.hi-addr >= size {
		return addr, nil
	}
	return 0, ErrNoSpace
}

// cloneEntryTarget duplicates e's reference to its target, bumping the
// appropriate refcount.
func (m *Map) refTarget(e *Entry) {
	if e.object != nil {
		m.sys.ObjectRef(e.object)
	}
	if e.sharing != nil {
		e.sharing.mu.Lock()
		e.sharing.refs++
		e.sharing.mu.Unlock()
	}
}

// derefTarget drops e's reference to its target.
func (m *Map) derefTarget(e *Entry) {
	if e.object != nil {
		m.sys.ObjectDeref(e.object)
	}
	if e.sharing != nil {
		sm := e.sharing
		sm.mu.Lock()
		sm.refs--
		dead := sm.refs <= 0
		var inner []*Entry
		if dead {
			inner = sm.entries
			sm.entries = nil
		}
		sm.mu.Unlock()
		for _, ie := range inner {
			if ie.object != nil {
				m.sys.ObjectDeref(ie.object)
			}
		}
	}
}

// clipStart splits the entry at index i so that it starts at addr. A
// reservation is never split: it stays the one entry its holder put in.
func (m *Map) clipStart(i int, addr uint64) {
	e := m.entries[i]
	if addr <= e.start || addr >= e.end || e.reserved() {
		return
	}
	head := &Entry{
		start: e.start, end: addr,
		prot: e.prot, maxProt: e.maxProt, inherit: e.inherit,
		object: e.object, offset: e.offset, sharing: e.sharing,
		needsCopy: e.needsCopy,
	}
	e.offset += addr - e.start
	e.start = addr
	m.refTarget(head) // second reference to the same target
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = head
}

// clipEnd splits the entry at index i so that it ends at addr, unless it
// is a reservation.
func (m *Map) clipEnd(i int, addr uint64) {
	e := m.entries[i]
	if addr <= e.start || addr >= e.end || e.reserved() {
		return
	}
	tail := &Entry{
		start: addr, end: e.end,
		prot: e.prot, maxProt: e.maxProt, inherit: e.inherit,
		object: e.object, offset: e.offset + (addr - e.start), sharing: e.sharing,
		needsCopy: e.needsCopy,
	}
	e.end = addr
	m.refTarget(tail)
	m.entries = append(m.entries, nil)
	copy(m.entries[i+2:], m.entries[i+1:])
	m.entries[i+1] = tail
}

// clipRange splits entries so that [start, end) boundaries coincide with
// entry boundaries, and returns the indexes [i, j) of entries inside the
// range. All addresses page aligned. Reservations are left whole, so one
// may be among the entries returned, reaching past end: callers skip
// reserved entries, which are their holder's alone to change or remove.
func (m *Map) clipRange(start, end uint64) (int, int) {
	i := sort.Search(len(m.entries), func(i int) bool {
		return m.entries[i].end > start
	})
	if i < len(m.entries) && m.entries[i].start < start {
		m.clipStart(i, start)
		i++
	}
	j := i
	for j < len(m.entries) && m.entries[j].start < end {
		if m.entries[j].end > end {
			m.clipEnd(j, end)
		}
		j++
	}
	return i, j
}

// checkRange validates alignment and bounds for an operation.
func (m *Map) checkRange(addr, size uint64) error {
	ps := m.sys.PageSize()
	if addr%ps != 0 || size == 0 || size%ps != 0 {
		return ErrBadArgument
	}
	if addr < m.lo || addr+size > m.hi || addr+size < addr {
		return ErrInvalidAddress
	}
	return nil
}

// --- Table 3-3 operations -------------------------------------------------

// Allocate creates new zero-filled virtual memory of the given size
// (vm_allocate). With anywhere, a free range is chosen and returned;
// otherwise the memory is placed at addr, which must be free.
func (m *Map) Allocate(addr uint64, size uint64, anywhere bool) (uint64, error) {
	size = m.sys.round(size)
	if size == 0 {
		return 0, ErrBadArgument
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if anywhere {
		var err error
		addr, err = m.findSpace(size)
		if err != nil {
			return 0, err
		}
	} else {
		if err := m.checkRange(addr, size); err != nil {
			return 0, err
		}
		if !m.rangeFree(addr, addr+size) {
			return 0, ErrNoSpace
		}
	}
	m.insertEntry(m.sys.anonymousEntry(addr, size))
	return addr, nil
}

// anonymousEntry builds the entry vm_allocate makes: size bytes of fresh
// zero-fill memory at start, with the default attributes and the entry's
// reference on its object.
func (s *System) anonymousEntry(start, size uint64) *Entry {
	obj := s.NewAnonymousObject(size)
	obj.refs = 1
	return &Entry{
		start: start, end: start + size,
		prot: ProtDefault, maxProt: ProtAll, inherit: InheritCopy,
		object: obj,
	}
}

// AllocateWithObject maps a memory object into the address space
// (vm_allocate_with_pager). The object provides initial data values and
// receives changes. If copy is set the mapping is copy-on-write — the
// form used when out-of-line message data is received. The caller must
// have sent pager_init if the object needs it (kern does this).
func (m *Map) AllocateWithObject(obj *Object, objOffset uint64, addr, size uint64, anywhere, copyOnWrite bool) (uint64, error) {
	size = m.sys.round(size)
	if size == 0 || obj == nil {
		return 0, ErrBadArgument
	}
	if objOffset%m.sys.PageSize() != 0 {
		// The paper allows unaligned offsets with weaker consistency;
		// we require alignment (documented substitution).
		return 0, ErrBadArgument
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if anywhere {
		var err error
		addr, err = m.findSpace(size)
		if err != nil {
			return 0, err
		}
	} else {
		if err := m.checkRange(addr, size); err != nil {
			return 0, err
		}
		if !m.rangeFree(addr, addr+size) {
			return 0, ErrNoSpace
		}
	}
	m.sys.ObjectRef(obj)
	m.insertEntry(&Entry{
		start: addr, end: addr + size,
		prot: ProtDefault, maxProt: ProtAll, inherit: InheritCopy,
		object: obj, offset: objOffset, needsCopy: copyOnWrite,
	})
	return addr, nil
}

// Deallocate removes a range of addresses, making them no longer valid
// (vm_deallocate).
func (m *Map) Deallocate(addr, size uint64) error {
	size = m.sys.round(size)
	m.mu.Lock()
	if err := m.checkRange(addr, size); err != nil {
		m.mu.Unlock()
		return err
	}
	i, j := m.clipRange(addr, addr+size)
	removed := make([]*Entry, 0, j-i)
	kept := m.entries[:i]
	for _, e := range m.entries[i:j] {
		if e.reserved() {
			kept = append(kept, e)
		} else {
			removed = append(removed, e)
		}
	}
	m.entries = append(kept, m.entries[j:]...)
	// The translations go before the range can be allocated again: a
	// new owner must neither inherit them nor lose its own to this
	// removal.
	ps := m.sys.PageSize()
	m.sys.mu.Lock()
	m.pmap.remove(addr/ps, (addr+size)/ps-1)
	m.sys.mu.Unlock()
	m.mu.Unlock()

	for _, e := range removed {
		m.derefTarget(e)
	}
	return nil
}

// Protect sets the protection of an address range (vm_protect). With
// setMax the maximum protection is lowered; the current protection is
// clipped to it. Raising the current protection above the maximum fails.
func (m *Map) Protect(addr, size uint64, setMax bool, prot Prot) error {
	size = m.sys.round(size)
	m.mu.Lock()
	if err := m.checkRange(addr, size); err != nil {
		m.mu.Unlock()
		return err
	}
	i, j := m.clipRange(addr, addr+size)
	for _, e := range m.entries[i:j] {
		if e.reserved() {
			continue
		}
		if setMax {
			e.maxProt &= prot
			e.prot &= e.maxProt
		} else {
			if prot&^e.maxProt != 0 {
				m.mu.Unlock()
				return ErrProtection
			}
			e.prot = prot
		}
	}
	m.mu.Unlock()

	ps := m.sys.PageSize()
	m.sys.mu.Lock()
	m.pmap.protect(addr/ps, (addr+size)/ps-1, prot)
	m.sys.mu.Unlock()
	return nil
}

// SetInheritance specifies how an address range is inherited in child
// tasks (vm_inherit).
func (m *Map) SetInheritance(addr, size uint64, inh Inherit) error {
	size = m.sys.round(size)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	i, j := m.clipRange(addr, addr+size)
	for _, e := range m.entries[i:j] {
		if !e.reserved() {
			e.inherit = inh
		}
	}
	return nil
}

// Regions returns a description of the address space (vm_regions).
func (m *Map) Regions() []RegionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RegionInfo, 0, len(m.entries))
	for _, e := range m.entries {
		if e.reserved() {
			continue
		}
		ri := RegionInfo{
			Start: e.start, Size: e.end - e.start,
			Prot: e.prot, MaxProt: e.maxProt, Inherit: e.inherit,
			Offset: e.offset, Shared: e.sharing != nil,
		}
		if e.object != nil {
			ri.ObjectID = e.object.id
		}
		out = append(out, ri)
	}
	return out
}

// Fork builds the address map of a child task per the inheritance
// attribute of each region (§3.3): share regions move behind a sharing
// map referenced by both maps; copy regions become copy-on-write in both.
func (m *Map) Fork() *Map {
	child := m.sys.NewMap(m.lo, m.hi)
	type eagerCopy struct{ start, size uint64 }
	var eager []eagerCopy

	m.mu.Lock()
	for _, e := range m.entries {
		switch e.inherit {
		case InheritNone:
			continue
		case InheritShare:
			if e.sharing == nil {
				// First sharing of this entry: interpose a sharing
				// map holding the object reference.
				sm := &shareMap{refs: 1}
				sm.entries = []*Entry{{
					start: e.start, end: e.end,
					prot: e.maxProt, maxProt: e.maxProt,
					object: e.object, offset: e.offset,
					needsCopy: e.needsCopy,
				}}
				e.object = nil
				e.offset = 0
				e.needsCopy = false
				e.sharing = sm
			}
			ce := &Entry{
				start: e.start, end: e.end,
				prot: e.prot, maxProt: e.maxProt, inherit: e.inherit,
				sharing: e.sharing,
			}
			e.sharing.mu.Lock()
			e.sharing.refs++
			e.sharing.mu.Unlock()
			child.entries = append(child.entries, ce)
		case InheritCopy:
			if e.sharing != nil {
				// Copying a shared region snapshots it eagerly
				// (simplification documented in DESIGN.md).
				eager = append(eager, eagerCopy{e.start, e.end - e.start})
				continue
			}
			ce := &Entry{
				start: e.start, end: e.end,
				prot: e.prot, maxProt: e.maxProt, inherit: e.inherit,
				object: e.object, offset: e.offset,
				needsCopy: true,
			}
			m.sys.ObjectRef(e.object)
			e.needsCopy = true
			child.entries = append(child.entries, ce)
			// Write-protect the parent's existing translations so its
			// next write faults and shadows.
			ps := m.sys.PageSize()
			m.sys.mu.Lock()
			m.pmap.protect(e.start/ps, e.end/ps-1, ProtAll&^ProtWrite)
			m.sys.mu.Unlock()
		}
	}
	m.mu.Unlock()

	// Eager copies of shared regions, through the ordinary access path.
	for _, ec := range eager {
		if _, err := child.Allocate(ec.start, ec.size, false); err != nil {
			continue
		}
		buf := make([]byte, ec.size)
		if err := m.ReadBytes(ec.start, buf); err == nil {
			_ = child.WriteBytes(ec.start, buf)
		}
	}
	return child
}

// CopyRegionTo maps a copy-on-write snapshot of [srcAddr, srcAddr+size)
// of this map into dst at a freshly allocated address, returning that
// address. This is the engine of out-of-line message transfer and of
// vm_copy: no data moves until one side writes (§1, §3.3).
func (m *Map) CopyRegionTo(dst *Map, srcAddr, size uint64) (uint64, error) {
	size = m.sys.round(size)
	if err := m.checkRange(srcAddr, size); err != nil { // bounds only: no lock
		return 0, err
	}

	// The destination range is reserved in the hold that finds it: dst
	// is unlocked while the entries are built under m.mu, and every
	// out-of-line send on a kernel allocates in the same transit map.
	dst.mu.Lock()
	dstAddr, err := dst.findSpace(size)
	if err != nil {
		dst.mu.Unlock()
		return 0, err
	}
	hold := &Entry{start: dstAddr, end: dstAddr + size, inherit: InheritNone}
	dst.insertEntry(hold)
	dst.mu.Unlock()

	var eager []struct{ src, dst, size uint64 }

	m.mu.Lock()
	i, j := m.clipRange(srcAddr, srcAddr+size)
	if !coversRange(m.entries[i:j], srcAddr, srcAddr+size) {
		m.mu.Unlock()
		dst.replaceReservation(hold, nil)
		return 0, ErrInvalidAddress
	}
	newEntries := make([]*Entry, 0, j-i)
	ps := m.sys.PageSize()
	for _, e := range m.entries[i:j] {
		at, n := dstAddr+(e.start-srcAddr), e.end-e.start
		if e.sharing != nil {
			// A shared region is snapshotted eagerly, into fresh
			// memory inside the reservation.
			newEntries = append(newEntries, m.sys.anonymousEntry(at, n))
			eager = append(eager, struct{ src, dst, size uint64 }{e.start, at, n})
			continue
		}
		newEntries = append(newEntries, &Entry{
			start: at, end: at + n,
			prot: e.prot, maxProt: e.maxProt, inherit: e.inherit,
			object: e.object, offset: e.offset,
			needsCopy: true,
		})
		m.sys.ObjectRef(e.object)
		e.needsCopy = true
		m.sys.mu.Lock()
		m.pmap.protect(e.start/ps, e.end/ps-1, ProtAll&^ProtWrite)
		m.sys.mu.Unlock()
	}
	m.mu.Unlock()

	if !dst.replaceReservation(hold, newEntries) {
		for _, e := range newEntries {
			dst.derefTarget(e)
		}
		return 0, ErrInvalidAddress
	}

	for _, ec := range eager {
		buf := make([]byte, ec.size)
		err := m.ReadBytes(ec.src, buf)
		if err == nil {
			err = dst.WriteBytes(ec.dst, buf)
		}
		if err != nil {
			_ = dst.Deallocate(dstAddr, size)
			return 0, err
		}
	}
	return dstAddr, nil
}

// replaceReservation takes the reservation hold out of the map and puts
// entries, which tile its range in address order, in its place (none just
// releases the range). No operation on the range clips, changes or
// removes a reservation, so it is found as it was put in; only Destroy
// takes it away, and then replaceReservation reports false and the entries
// are still the caller's.
func (m *Map) replaceReservation(hold *Entry, entries []*Entry) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, _ := m.entryIndex(hold.start)
	if i < 0 || m.entries[i] != hold {
		return false
	}
	rest := append(entries[:len(entries):len(entries)], m.entries[i+1:]...)
	m.entries = append(m.entries[:i], rest...)
	return true
}

// Copy copies size bytes from srcAddr to dstAddr within the map
// (vm_copy), using the COW machinery via an intermediate region.
func (m *Map) Copy(srcAddr, size, dstAddr uint64) error {
	buf := make([]byte, size)
	if err := m.ReadBytes(srcAddr, buf); err != nil {
		return err
	}
	return m.WriteBytes(dstAddr, buf)
}

// Destroy tears down the address space, dereferencing every object.
func (m *Map) Destroy() {
	m.mu.Lock()
	entries := m.entries
	m.entries = nil
	ps := m.sys.PageSize()
	m.sys.mu.Lock()
	m.pmap.remove(m.lo/ps, m.hi/ps-1)
	m.sys.mu.Unlock()
	m.mu.Unlock()
	for _, e := range entries {
		m.derefTarget(e)
	}
}

func coversRange(entries []*Entry, start, end uint64) bool {
	at := start
	for _, e := range entries {
		if e.start != at || e.reserved() {
			return false
		}
		at = e.end
	}
	return at >= end
}
