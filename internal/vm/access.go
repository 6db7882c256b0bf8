package vm

// This file is the simulated CPU's load/store path. Tasks touch their
// address space through ReadBytes/WriteBytes, which consult the pmap (the
// simulated TLB) and take the machine-independent fault path on a miss or
// protection violation — exactly where real hardware would trap.

// ReadBytes copies len(buf) bytes from the address space starting at addr
// into buf, faulting pages in as needed.
func (m *Map) ReadBytes(addr uint64, buf []byte) error {
	return m.access(addr, buf, ProtRead)
}

// WriteBytes copies data into the address space at addr, faulting and
// copy-on-write-resolving as needed.
func (m *Map) WriteBytes(addr uint64, data []byte) error {
	return m.access(addr, data, ProtWrite)
}

func (m *Map) access(addr uint64, buf []byte, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	pos := 0
	for pos < len(buf) {
		pageAddr := s.trunc(addr + uint64(pos))
		pageOff := (addr + uint64(pos)) - pageAddr
		n := int(ps - pageOff)
		if n > len(buf)-pos {
			n = len(buf) - pos
		}
		vpage := pageAddr / ps

		s.mu.Lock()
		frame, ok := m.pmap.translate(vpage, desired)
		if ok {
			fb := s.frames.Bytes(frame)
			if p := s.frame2page[frame]; p != nil {
				p.referenced = true
				if desired&ProtWrite != 0 {
					p.dirty = true
				}
			}
			if desired&ProtWrite != 0 {
				copy(fb[pageOff:], buf[pos:pos+n])
			} else {
				copy(buf[pos:pos+n], fb[pageOff:int(pageOff)+n])
			}
			s.mu.Unlock()
			s.charge(n)
			pos += n
			continue
		}
		s.mu.Unlock()
		// The fault is told how far the access still has to go, so one
		// fault can page in and map the whole remainder.
		if err := m.fault(pageAddr+pageOff, uint64(len(buf)-pos), desired); err != nil {
			return err
		}
	}
	return nil
}

// Touch faults every page of [addr, addr+size) with the desired access
// without transferring data — the working-set warm-up used by the
// experiments and by pre-paging migration managers.
func (m *Map) Touch(addr, size uint64, desired Prot) error {
	s := m.sys
	ps := s.PageSize()
	end := s.round(addr + size)
	for a := s.trunc(addr); a < end; a += ps {
		vpage := a / ps
		s.mu.Lock()
		_, ok := m.pmap.translate(vpage, desired)
		if ok {
			s.mu.Unlock()
			s.charge(1)
			continue
		}
		s.mu.Unlock()
		if err := m.fault(a, end-a, desired); err != nil {
			return err
		}
		s.charge(1)
	}
	return nil
}
