// Package ipc implements Mach inter-process communication: ports
// (kernel-protected message queues), port rights held in per-task name
// spaces, typed messages that can carry data, port rights and out-of-line
// memory regions, and the primitive operations of Tables 3-1 and 3-2 of
// the paper (msg_send / msg_receive / msg_rpc, port_allocate,
// port_deallocate, port_status, port_set_backlog). Mach's port sets
// stand in for port_enable, port_disable and port_messages: a task
// receives from many ports by naming one set.
//
// A port has any number of senders but exactly one receiver. Access to a
// port is granted only by receiving a message containing a port right.
// When a port's receive right is destroyed the port dies and every space
// holding send rights is notified with a port-death message — the
// mechanism the paper's minimal filesystem uses for cleanup (§4.1).
//
// The package is host-aware: every name space belongs to a simulated host
// and message transmission is charged to the machine topology, so the
// same IPC code runs intra-host (UMA) and across a NORMA network.
package ipc

import "errors"

// Errors returned by IPC primitives. They mirror the msg_return_t codes
// of the original system.
var (
	// ErrInvalidPort: the named right does not exist in the space or
	// does not carry the required right.
	ErrInvalidPort = errors.New("ipc: invalid port name")
	// ErrNotReceiver: the operation requires the receive right.
	ErrNotReceiver = errors.New("ipc: space does not hold receive right")
	// ErrSendTimedOut: the destination backlog stayed full past the
	// send timeout.
	ErrSendTimedOut = errors.New("ipc: send timed out")
	// ErrRcvTimedOut: no message arrived before the receive timeout.
	ErrRcvTimedOut = errors.New("ipc: receive timed out")
	// ErrPortDied: the port's receive right was destroyed while the
	// caller was blocked on it, or the message named a dead port.
	ErrPortDied = errors.New("ipc: port died")
	// ErrDeadName: the name refers to a port whose receive right was
	// destroyed. The name stays reserved in the space (it can never be
	// reallocated to alias a new port) until the task deallocates it.
	ErrDeadName = errors.New("ipc: dead name")
	// ErrWouldBlock: a non-blocking send found the backlog full or a
	// non-blocking receive found no message.
	ErrWouldBlock = errors.New("ipc: operation would block")
	// ErrNoEnabledPorts: receive on a port set with no members.
	ErrNoEnabledPorts = errors.New("ipc: port set has no members")
	// ErrSpaceDead: the name space was destroyed (task terminated).
	ErrSpaceDead = errors.New("ipc: port name space destroyed")
	// ErrDuplicateRight: inserting a receive right the space already
	// holds.
	ErrDuplicateRight = errors.New("ipc: duplicate right")
	// ErrInSet: direct receive from a port that is a member of a port
	// set (messages arrive through the set), mirroring MACH_RCV_IN_SET.
	ErrInSet = errors.New("ipc: port is a member of a port set")
	// ErrNotSet: a port-set operation named an ordinary port right where
	// a port set was required.
	ErrNotSet = errors.New("ipc: name is not a port set")
	// ErrNotInSet: removing a port from a set it is not a member of.
	ErrNotInSet = errors.New("ipc: port is not a member of that set")
)
