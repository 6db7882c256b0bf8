// Package pager implements the external memory management protocol of
// Section 3.4 of the paper as IPC messages: the kernel-to-data-manager
// calls of Table 3-5 (pager_init, pager_data_request, pager_data_write,
// pager_data_unlock, pager_create) and the data-manager-to-kernel calls
// of Table 3-6 (pager_data_provided, pager_data_lock,
// pager_flush_request, pager_clean_request, pager_cache,
// pager_data_unavailable).
//
// The range contract of pager_data_request: offset names the page a
// fault is waiting for, and that page is the only one the kernel waits
// for. A length of more than one page is a hint — the run of pages the
// faulting access is about to touch that the kernel does not cache,
// clipped to the access, the map entry, the object and a cluster of
// pages — and the manager may answer any prefix of the range with
// pager_data_provided ("advanced data managers may provide more data
// than requested" cuts both ways: less is fine too). The kernel installs
// whatever arrives, keeps its own copy of a page it already caches, and
// faults again, per page, for what did not come. A manager written
// against one-page requests that answers for the page at offset is
// therefore still correct, and one that answers the range
// (MemoryObject.ProvideRange) turns a multi-page access into one round
// trip.
//
// A request may lend the frames of its range (vm.FrameGrant), carried
// out of line. A manager on the kernel's host may read the pages into
// them and return the grant, out of line again, with pager_data_provided
// — the header names the pages provided, and the grant holds them — or
// with pager_data_unavailable, whose zero-fill then uses the grant's
// frames.
// A manager that does neither leaves the grant to the Manager's loop
// handler, which gives it back; the answer is then the copy path, unchanged.
//
// pager_data_unavailable is the exception to "length is only a hint": it
// makes the kernel zero-fill every page it names that a fault is waiting
// for, and a second fault may be waiting, on its own request, for a page
// inside the first one's hint. So it must name only pages the manager
// knows to be empty — never the request's length as such. A manager that
// looked at the first page only reports that page.
//
// It also provides the manager-side library (Manager) that data-manager
// tasks embed — the filesystem server, shared memory server, migration
// manager and Camelot disk manager are all built on it — and the trusted
// DefaultPager of §6.2.2, which backs kernel-created memory objects on a
// simulated disk through exactly the same interface.
package pager

import (
	"repro/internal/ipc"
	"repro/internal/rpc"
	"repro/internal/vm"
)

// Message IDs of the external memory management interface. IDs in the
// kernel-to-manager range arrive on memory object ports; IDs in the
// manager-to-kernel range arrive on pager request ports.
const (
	// MsgPagerInit initializes a memory object (pager_init). Body:
	// [request-port right, name-port right, header].
	MsgPagerInit ipc.MsgID = 2200 + iota
	// MsgDataRequest asks the manager for data (pager_data_request).
	MsgDataRequest
	// MsgDataWrite returns dirty data to the manager
	// (pager_data_write).
	MsgDataWrite
	// MsgDataUnlock asks the manager to relax a data lock
	// (pager_data_unlock).
	MsgDataUnlock
	// MsgPagerCreate asks the default pager to accept responsibility
	// for a kernel-created object (pager_create). Body: [memory-object
	// receive right, request-port right, name-port right, header].
	MsgPagerCreate

	// MsgDataProvided supplies object data (pager_data_provided).
	MsgDataProvided
	// MsgDataLock restricts cache access (pager_data_lock).
	MsgDataLock
	// MsgFlushRequest invalidates cached data (pager_flush_request).
	MsgFlushRequest
	// MsgCleanRequest writes back cached data (pager_clean_request).
	MsgCleanRequest
	// MsgCache grants/revokes caching permission (pager_cache).
	MsgCache
	// MsgDataUnavailable reports that data does not exist
	// (pager_data_unavailable).
	MsgDataUnavailable
	// MsgLockCompleted is the kernel's completion notification for a
	// flush or clean request that carried a reply port (Mach 3's
	// memory_object_lock_completed; consistency protocols depend on
	// it). Flag byte = pages written back ahead of the ack.
	MsgLockCompleted
)

// wireHeaderLen is the fixed prefix of every pager message payload:
// offset (8), length (8), prot (1), flag (1).
const wireHeaderLen = 18

// EncodePayload builds the inline payload of a pager message: offset,
// length, a protection/lock value, a flag byte, and optional page data.
// Exported for data managers that need to parse protocol messages
// themselves (e.g. flush acknowledgements).
func EncodePayload(offset, length uint64, prot vm.Prot, flag byte, data []byte) []byte {
	return encodePayload(offset, length, prot, flag, data)
}

// DecodePayload splits a pager message payload; ok is false if the
// payload is shorter than the fixed header.
func DecodePayload(b []byte) (offset, length uint64, prot vm.Prot, flag byte, data []byte, ok bool) {
	return decodePayload(b)
}

// encodePayload builds the inline payload of a pager message through
// the generated wirePayload codec (internal/idl/defs/pager.go): offset
// u64, length u64, prot u8, flag u8, then the raw page data as the
// tail. The bytes are freshly allocated; the send paths use newMessage.
func encodePayload(offset, length uint64, prot vm.Prot, flag byte, data []byte) []byte {
	var e rpc.Enc
	w := wirePayload{Offset: offset, Length: length, Prot: byte(prot), Flag: flag, Data: data}
	w.encodePayload(&e)
	return e.Payload()
}

// newMessage builds a pooled pager message id whose payload — the header
// then data — is its own inline section, with sections placed before it.
// The data is copied into the message's recycled buffer and the header
// encoded in place there by the generated codec, so building the message
// allocates nothing in the steady state. The payload and its wire size are
// exactly those of encodePayload.
func newMessage(id ipc.MsgID, offset, length uint64, prot vm.Prot, flag byte, data []byte, before ...ipc.Section) *ipc.Message {
	m := ipc.GetMessage()
	m.ID = id
	for _, s := range before {
		m.AppendSection(s)
	}
	var reserve [wireHeaderLen]byte
	m.InlineCopy(reserve[:], data)
	e := rpc.EncOver(m.Sections[len(m.Sections)-1].Data[:0:wireHeaderLen])
	w := wirePayload{Offset: offset, Length: length, Prot: byte(prot), Flag: flag}
	w.encodePayload(&e)
	return m
}

// decodePayload splits a pager message payload with length-checked
// decoding; ok is false if the payload is shorter than the fixed header.
// The returned data aliases b: decoding copies nothing.
func decodePayload(b []byte) (offset, length uint64, prot vm.Prot, flag byte, data []byte, ok bool) {
	var w wirePayload
	d := rpc.NewDec(b)
	w.decodePayload(d)
	if d.Err() != nil {
		return 0, 0, 0, 0, nil, false
	}
	return w.Offset, w.Length, vm.Prot(w.Prot), w.Flag, w.Data, true
}
