package ipc

import "sync"

// Message pooling: the zero-allocation send path. A message, its
// section array and its scratch buffer are one pooled unit; a sender
// builds requests with GetMessage + AppendInline and the final consumer
// (the receiver, once it has extracted what it needs) hands the unit
// back with Release. Messages built with plain &Message{} literals keep
// working everywhere — Release simply feeds them into the pool too.
//
// Ownership discipline: a message belongs to exactly one party at a
// time — the builder until Send, the kernel queue while in flight, the
// receiver after Receive. Only the current owner may Release, and only
// when it will never touch the message (or slices into its scratch
// buffer) again. Releasing a message that is still queued, or twice,
// corrupts whatever call gets it from the pool next; Release panics on
// the double-release it can detect. A send that is refused leaves the
// message with its builder, who releases it. A Loop releases every
// message it received once the handler returns, unless the handler kept
// it; the kernel's notifications are pooled messages too.
//
// The external pager protocol runs on pooled messages in both
// directions. The kernel's calls are released by the receiving
// pager.Manager's loop once its handler has returned, and the manager's
// calls back (pager_data_provided, pager_data_unavailable,
// pager_data_lock, the flush, clean and cache requests) by the kernel
// loop that applies them.
// A message one party drops without releasing — one forwarded by the
// netmsg relay, which sends a copy of its own — is left to the garbage
// collector, never recycled behind a holder's back.

var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns an empty pooled message. The caller sets the
// header fields and appends body sections (AppendInline, AppendSection,
// InlineCopy); section-array and scratch capacity from earlier lives of
// the message are retained, so steady-state acquisition allocates
// nothing.
func GetMessage() *Message {
	m := msgPool.Get().(*Message)
	m.free = false
	return m
}

// Release resets the message and returns it to the pool. Call it only
// as the message's final owner (normally the receiver, after the
// payload has been decoded and any carried rights consumed): the
// message object, its sections and any InlineCopy scratch data are
// recycled into future GetMessage calls the moment it is released.
func (m *Message) Release() {
	if m.free {
		panic("ipc: Message released twice")
	}
	m.free = true
	m.reset()
	msgPool.Put(m)
}

// reset clears the message for reuse, dropping every pointer it holds
// (so pooled messages never pin ports, regions or payload bytes) while
// keeping the section array and scratch buffer capacity.
func (m *Message) reset() {
	m.ID = 0
	m.RemotePort = 0
	m.LocalPort = 0
	for i := range m.Sections {
		m.Sections[i] = Section{}
	}
	m.Sections = m.Sections[:0]
	m.scratch = m.scratch[:0]
	m.replyPort = nil
	m.arrivedOn = nil
	m.trace = 0
	m.sentAt = 0
}

// AppendInline appends an inline data section. The bytes are referenced,
// not copied: they must stay valid until the message is consumed.
func (m *Message) AppendInline(b []byte) *Message {
	m.Sections = append(m.Sections, Section{Kind: InlineData, Data: b})
	return m
}

// AppendSection appends an arbitrary section (port right, region).
func (m *Message) AppendSection(sec Section) *Message {
	m.Sections = append(m.Sections, sec)
	return m
}

// InlineCopy concatenates the given byte slices into the message's own
// scratch buffer and appends the result as one inline section. The copy
// lives exactly as long as the message — released (and recycled) with
// it — so builders of replies and notifications can assemble a payload
// without allocating per message.
func (m *Message) InlineCopy(parts ...[]byte) *Message {
	b := m.scratch[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	m.scratch = b
	return m.AppendInline(b)
}
