package ipc

// MsgID distinguishes message kinds on a port; the kernel interfaces
// (pager_*, vm_*) each claim an ID range.
type MsgID int32

// Reserved message IDs used by the IPC layer itself.
const (
	// MsgIDPortDeleted is delivered to a space's notify port when a
	// port it holds send rights to is destroyed. The message carries
	// one inline section: the 4-byte little-endian dead port name.
	MsgIDPortDeleted MsgID = -100
	// MsgIDNoSenders is delivered to a space's notify port when a port
	// it requested notification for (Space.RequestNoSenders) has no
	// extant send rights left. The message carries one inline section:
	// the 4-byte port name followed by the port's 4-byte make-send
	// count at firing time (see Space.ConfirmNoSenders).
	MsgIDNoSenders MsgID = -101
	// MsgIDDeadName is delivered to the notify port chosen by
	// Space.RequestDeadName when a held send right's port dies and the
	// name becomes a dead name. The message carries one inline section:
	// the 4-byte dead name followed by the name entry's 4-byte
	// generation at request time — the make-send-style staleness guard
	// a consumer replays through Space.ConfirmDeadName before acting
	// (the name may have been deallocated and reallocated to a fresh
	// port while the notification sat queued).
	MsgIDDeadName MsgID = -102
)

// Right describes a port right carried in a name space or a message.
type Right uint8

const (
	// SendRight allows msg_send on the port.
	SendRight Right = 1 << iota
	// ReceiveRight allows msg_receive; only one space may hold it.
	ReceiveRight
)

// SectionKind discriminates the typed data items in a message body,
// mirroring the type tags of Mach messages.
type SectionKind uint8

const (
	// InlineData is ordinary byte data copied with the message.
	InlineData SectionKind = iota
	// PortRightSection transfers a port right to the receiver.
	PortRightSection
	// OutOfLineSection transfers a memory region by mapping rather
	// than copying; the kernel moves it copy-on-write (§1, §3.3).
	OutOfLineSection
)

// OutOfLineRegion is an opaque handle to memory carried out-of-line in a
// message. The vm/kern layers implement it; the IPC layer only needs its
// size for accounting, and a way to give the memory back when the
// message carrying it is never delivered. Transfer cost is charged when
// the receiver touches the pages, not here — that asymmetry is the
// paper's point.
type OutOfLineRegion interface {
	// Size returns the region length in bytes.
	Size() int
	// Discard releases the memory of a region nobody will map: the
	// message carrying it could not be sent, or died queued on a
	// destroyed port. A region is mapped or discarded once; later
	// calls do nothing.
	Discard()
}

// wirePricedRegion is a region that sets its own interconnect charge in
// place of the fixed descriptor size. A region that stands in for
// inline bytes (vm.FrameGrant) is charged as those bytes, so the
// simulated machine pays for the copy the host no longer makes.
type wirePricedRegion interface {
	WireSize() int
}

// Section is one typed item in a message body.
type Section struct {
	Kind SectionKind

	// Data holds the bytes of an InlineData section.
	Data []byte

	// PortName names the right being sent (in the sender's space) or,
	// after receipt, the name the right was inserted under in the
	// receiver's space. Valid for PortRightSection.
	PortName Name
	// Right is the right kind being transferred.
	Right Right

	// Region is the payload of an OutOfLineSection.
	Region OutOfLineRegion

	// port carries the resolved port while the message is in flight.
	port *Port
}

// InlineBytes builds an inline data section.
func InlineBytes(b []byte) Section { return Section{Kind: InlineData, Data: b} }

// CarryRight builds a section transferring the named right.
func CarryRight(name Name, r Right) Section {
	return Section{Kind: PortRightSection, PortName: name, Right: r}
}

// CarryRegion builds an out-of-line section around a memory region.
func CarryRegion(r OutOfLineRegion) Section {
	return Section{Kind: OutOfLineSection, Region: r}
}

// Message is a Mach message: a fixed-size header plus a variable-size
// body of typed sections. A single message may transfer up to an entire
// address space via out-of-line sections.
type Message struct {
	// ID tags the operation the message requests or answers.
	ID MsgID

	// RemotePort is, on send, the destination port name in the
	// sender's space (a send right). On receive it is rewritten to
	// name the reply port in the receiver's space (0 if none).
	RemotePort Name

	// LocalPort is, on send, the reply port whose send right is
	// implicitly transferred (0 for one-way messages). On receive it
	// is rewritten to the name of the port the message arrived on.
	LocalPort Name

	// Sections is the typed body.
	Sections []Section

	// replyPort carries the resolved reply port while in flight.
	replyPort *Port
	// arrivedOn records the destination port for receive rewriting.
	arrivedOn *Port
	// trace is the message's sampled trace ID (0 = untraced, the
	// common case). Send mints one only when the field is still zero,
	// so a reply or forward that copied its request's ID keeps it —
	// one logical operation, one trace across kernels.
	trace uint64
	// sentAt is the send-side timestamp of a latency-sampled message
	// (0 = unsampled); the receive path turns it into one histogram
	// sample. Only every obs.LatencySampleEvery-th send pays the
	// time.Now() — see IPCMetrics.Latency.
	sentAt int64
	// scratch is the message-owned payload buffer InlineCopy assembles
	// into; it is recycled with the message (see pool.go).
	scratch []byte
	// free marks a message currently sitting in the pool, the guard
	// Release uses to reject a double release.
	free bool
}

// messageHeaderBytes approximates the fixed header cost charged to the
// interconnect for every message.
const messageHeaderBytes = 64

// wireSize is the number of bytes charged to the topology: header plus
// inline data plus a small descriptor per right or region. Out-of-line
// payload bytes are NOT included — they move by mapping.
func (m *Message) wireSize() int {
	n := messageHeaderBytes
	for i := range m.Sections {
		switch m.Sections[i].Kind {
		case InlineData:
			n += len(m.Sections[i].Data)
		case PortRightSection:
			n += 8
		case OutOfLineSection:
			if r, ok := m.Sections[i].Region.(wirePricedRegion); ok {
				n += r.WireSize()
			} else {
				n += 32
			}
		}
	}
	return n
}

// WireSize exposes the charged wire size of the message — kernel-side
// observability surface (the netmsg relay accounts forwarded bytes per
// peer with it).
func (m *Message) WireSize() int { return m.wireSize() }

// InlineData returns the concatenation-free convenience view of the first
// inline section, or nil if the message has none. Most kernel interface
// messages carry exactly one inline payload.
func (m *Message) InlineData() []byte {
	for i := range m.Sections {
		if m.Sections[i].Kind == InlineData {
			return m.Sections[i].Data
		}
	}
	return nil
}

// FirstPortRight returns the name of the first port-right section in
// the body (0 if none) — the common shape of requests and replies that
// carry exactly one capability. Only meaningful after delivery, when
// PortName holds the receiver-space name.
func (m *Message) FirstPortRight() Name {
	for i := range m.Sections {
		if m.Sections[i].Kind == PortRightSection && m.Sections[i].PortName != 0 {
			return m.Sections[i].PortName
		}
	}
	return 0
}

// FirstRegion returns the first out-of-line region in the body, or nil.
func (m *Message) FirstRegion() OutOfLineRegion {
	for i := range m.Sections {
		if m.Sections[i].Kind == OutOfLineSection {
			return m.Sections[i].Region
		}
	}
	return nil
}

// EncodeName encodes a port name as the 4-byte payload used by
// notification messages.
func EncodeName(n Name) []byte {
	return []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
}

// DecodeName decodes a 4-byte notification payload back to a port name.
// It returns 0 for malformed payloads.
func DecodeName(b []byte) Name {
	if len(b) < 4 {
		return 0
	}
	return Name(b[0]) | Name(b[1])<<8 | Name(b[2])<<16 | Name(b[3])<<24
}

// EncodeNoSenders encodes the payload of a MsgIDNoSenders notification:
// the port name followed by the make-send count, both 4-byte
// little-endian.
func EncodeNoSenders(n Name, msCount uint32) []byte {
	return []byte{
		byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24),
		byte(msCount), byte(msCount >> 8), byte(msCount >> 16), byte(msCount >> 24),
	}
}

// DecodeNoSenders decodes a MsgIDNoSenders payload. It returns (0, 0)
// for malformed payloads.
func DecodeNoSenders(b []byte) (Name, uint32) {
	if len(b) < 8 {
		return 0, 0
	}
	ms := uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24
	return DecodeName(b), ms
}

// EncodeDeadName encodes the payload of a MsgIDDeadName notification:
// the dead name followed by the name entry's generation, both 4-byte
// little-endian (the same shape as a no-senders payload).
func EncodeDeadName(n Name, gen uint32) []byte { return EncodeNoSenders(n, gen) }

// DecodeDeadName decodes a MsgIDDeadName payload. It returns (0, 0)
// for malformed payloads.
func DecodeDeadName(b []byte) (Name, uint32) { return DecodeNoSenders(b) }

// Trace returns the message's trace ID (0 when untraced). Kernel-side
// relays and RPC servers read it to propagate the trace onto forwarded
// messages and replies.
func (m *Message) Trace() uint64 { return m.trace }

// SetTrace stamps a trace ID onto the message, tying it into an
// existing trace. Send never overwrites a non-zero ID, so a stamped
// reply or forward stays in its request's trace.
func (m *Message) SetTrace(id uint64) { m.trace = id }

// addSendRefs takes an in-transit reference on every send right the
// message carries (body sections and the reply port). Called on the
// send path once all rights are resolved, just before the message is
// enqueued.
func (m *Message) addSendRefs() {
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind == PortRightSection && sec.port != nil && sec.Right&SendRight != 0 {
			sec.port.addTransit()
		}
	}
	if m.replyPort != nil {
		m.replyPort.addTransit()
	}
}

// destroyRights disposes of the rights and regions an undeliverable
// message carries: send-right transit references are dropped, receive
// rights destroy their ports (an orphaned receive right could never be
// drained or destroyed by anyone — Mach's semantics for rights destroyed
// in an undeliverable message, which turn every other holder's name into
// a dead name), and out-of-line regions are discarded.
func (m *Message) destroyRights() {
	m.discardRegions()
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind != PortRightSection || sec.port == nil {
			continue
		}
		if sec.Right&SendRight != 0 {
			sec.port.dropTransit()
		}
		if sec.Right&ReceiveRight != 0 {
			sec.port.destroy()
		}
		sec.port = nil
	}
	if m.replyPort != nil {
		m.replyPort.dropTransit()
		m.replyPort = nil
	}
}

// discardRegions gives back the memory of every out-of-line region the
// message carries; it is how a message that is never delivered lets go
// of its copy-on-write snapshots and lent frames.
func (m *Message) discardRegions() {
	for i := range m.Sections {
		if sec := &m.Sections[i]; sec.Kind == OutOfLineSection && sec.Region != nil {
			sec.Region.Discard()
		}
	}
}

// ReleaseRights drops the in-transit send references of a raw-received
// message. Kernel-side receivers (RawReceive) must call it once they
// are done with the message's ports — space delivery does the
// equivalent automatically when rights are installed. A receiver that
// keeps a port beyond the call must take its own AddSendRef first.
// Receive rights are left untouched: the consumer owns them.
func (m *Message) ReleaseRights() {
	for i := range m.Sections {
		sec := &m.Sections[i]
		if sec.Kind == PortRightSection && sec.port != nil && sec.Right&SendRight != 0 {
			sec.port.dropTransit()
			if sec.Right&ReceiveRight == 0 {
				sec.port = nil
			}
		}
	}
	if m.replyPort != nil {
		m.replyPort.dropTransit()
		m.replyPort = nil
	}
}
