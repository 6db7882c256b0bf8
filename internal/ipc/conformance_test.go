package ipc

import (
	"errors"
	"testing"
	"time"
)

// The port-right state-machine conformance table: every combination of
// (right kind / port state) x operation, asserted against its expected
// error. This locks in PR 4's dead-name semantics and the port-set
// rules in one place — a change to any cell is a deliberate,
// test-visible semantics change, the systematic coverage the
// weak-memory-modeling line of work (Cheng/Higham/Kawash) asks of an
// IPC specification.
//
// States (all names live in the primary space `s`):
//
//	sendRecv   S|R on a live port (AllocatePort's grant)
//	sendOnly   S on a live port owned elsewhere
//	recvOnly   R without S (receive right arrived in a message)
//	deadName   S whose port died (stays reserved, ErrDeadName)
//	deadSR     S|R whose port was destroyed kernel-side
//	setMember  S|R moved into a port set
//	setName    a port-set name (no port rights at all)
//	missing    a never-allocated name
type confState string

const (
	stSendRecv  confState = "sendRecv"
	stSendOnly  confState = "sendOnly"
	stRecvOnly  confState = "recvOnly"
	stDeadName  confState = "deadName"
	stDeadSR    confState = "deadSR"
	stSetMember confState = "setMember"
	stSetName   confState = "setName"
	stMissing   confState = "missing"
)

// confEnv is one freshly built state fixture.
type confEnv struct {
	s      *Space // primary space; n lives here
	peer   *Space // remote holder (owns sendOnly's port, receives from it)
	n      Name   // the name under test
	set    Name   // the set n belongs to (setMember) or is (setName)
	notify Name   // a live receive right usable as a notify port
}

// buildState constructs the named state from scratch. Every cell gets
// its own spaces, so operations cannot contaminate each other.
func buildState(t *testing.T, st confState) *confEnv {
	t.Helper()
	e := &confEnv{s: NewSpace(0, nil), peer: NewSpace(0, nil)}
	t.Cleanup(func() { e.s.Destroy(); e.peer.Destroy() })
	var err error
	e.notify, err = e.s.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	switch st {
	case stSendRecv:
		e.n, err = e.s.AllocatePort()
	case stSendOnly:
		var pn Name
		pn, err = e.peer.AllocatePort()
		if err == nil {
			e.n, err = e.peer.CopySendRight(e.s, pn)
		}
	case stRecvOnly:
		// The peer allocates a port and ships ONLY the receive right;
		// the peer keeps the send right.
		var pn, carrier Name
		pn, err = e.peer.AllocatePort()
		if err != nil {
			break
		}
		carrier, err = e.s.AllocatePort()
		if err != nil {
			break
		}
		var cs Name
		cs, err = e.s.CopySendRight(e.peer, carrier)
		if err != nil {
			break
		}
		err = e.peer.Send(&Message{
			ID:         1,
			RemotePort: cs,
			Sections:   []Section{CarryRight(pn, ReceiveRight)},
		}, SendOptions{})
		if err != nil {
			break
		}
		var m *Message
		m, err = e.s.Receive(carrier, ReceiveOptions{Timeout: time.Second})
		if err == nil {
			e.n = m.Sections[0].PortName
		}
	case stDeadName:
		var pn Name
		pn, err = e.peer.AllocatePort()
		if err == nil {
			e.n, err = e.peer.CopySendRight(e.s, pn)
		}
		if err == nil {
			err = e.peer.DeallocatePort(pn)
		}
	case stDeadSR:
		e.n, err = e.s.AllocatePort()
		if err == nil {
			var p *Port
			p, err = e.s.Resolve(e.n)
			if err == nil {
				p.Destroy()
			}
		}
	case stSetMember:
		e.set, err = e.s.AllocatePortSet()
		if err == nil {
			e.n, err = e.s.AllocatePort()
		}
		if err == nil {
			err = e.s.MoveToPortSet(e.set, e.n)
		}
	case stSetName:
		e.n, err = e.s.AllocatePortSet()
		e.set = e.n
	case stMissing:
		e.n = Name(0xDEAD00) // never allocated
	default:
		t.Fatalf("unknown state %q", st)
	}
	if err != nil {
		t.Fatalf("building %q: %v", st, err)
	}
	return e
}

// receiveSet returns the set the space receives n through: e.set when
// the state has one, otherwise a newly allocated set.
func (e *confEnv) receiveSet() (Name, error) {
	if e.set != 0 {
		return e.set, nil
	}
	return e.s.AllocatePortSet()
}

// confOp is one operation applied to the name under test.
type confOp struct {
	name string
	run  func(e *confEnv) error
}

var confOps = []confOp{
	{"Send", func(e *confEnv) error {
		return e.s.Send(&Message{ID: 1, RemotePort: e.n}, SendOptions{NonBlocking: true})
	}},
	{"Receive", func(e *confEnv) error {
		_, err := e.s.Receive(e.n, ReceiveOptions{NonBlocking: true})
		return err
	}},
	{"Resolve", func(e *confEnv) error {
		_, err := e.s.Resolve(e.n)
		return err
	}},
	{"Status", func(e *confEnv) error {
		_, err := e.s.Status(e.n)
		return err
	}},
	// Enable and Disable are port_enable and port_disable as Mach 3
	// recast them: port_set_add and port_set_remove on the set the
	// space receives on — the set a setMember already sits in (or a
	// setName is), a new one otherwise. The MoveToPortSet and
	// RemoveFromPortSet columns always use an unrelated fresh set, so
	// only these two reach a name's own set.
	{"Enable", func(e *confEnv) error {
		set, err := e.receiveSet()
		if err != nil {
			return err
		}
		return e.s.MoveToPortSet(set, e.n)
	}},
	{"Disable", func(e *confEnv) error {
		set, err := e.receiveSet()
		if err != nil {
			return err
		}
		return e.s.RemoveFromPortSet(set, e.n)
	}},
	{"SetBacklog", func(e *confEnv) error { return e.s.SetBacklog(e.n, 4) }},
	{"CopySendRight", func(e *confEnv) error {
		_, err := e.s.CopySendRight(e.peer, e.n)
		return err
	}},
	{"CarrySend", func(e *confEnv) error {
		// Transfer a copy of the send right in a message body.
		dst, err := e.peer.AllocatePort()
		if err != nil {
			return err
		}
		ds, err := e.peer.CopySendRight(e.s, dst)
		if err != nil {
			return err
		}
		return e.s.Send(&Message{
			ID:         1,
			RemotePort: ds,
			Sections:   []Section{CarryRight(e.n, SendRight)},
		}, SendOptions{NonBlocking: true})
	}},
	{"CarryReceive", func(e *confEnv) error {
		dst, err := e.peer.AllocatePort()
		if err != nil {
			return err
		}
		ds, err := e.peer.CopySendRight(e.s, dst)
		if err != nil {
			return err
		}
		return e.s.Send(&Message{
			ID:         1,
			RemotePort: ds,
			Sections:   []Section{CarryRight(e.n, ReceiveRight)},
		}, SendOptions{NonBlocking: true})
	}},
	{"ReplyPort", func(e *confEnv) error {
		// Use the name as a message's reply port.
		dst, err := e.peer.AllocatePort()
		if err != nil {
			return err
		}
		ds, err := e.peer.CopySendRight(e.s, dst)
		if err != nil {
			return err
		}
		return e.s.Send(&Message{ID: 1, RemotePort: ds, LocalPort: e.n},
			SendOptions{NonBlocking: true})
	}},
	{"RequestNoSenders", func(e *confEnv) error { return e.s.RequestNoSenders(e.n) }},
	{"RequestDeadName", func(e *confEnv) error { return e.s.RequestDeadName(e.n, e.notify) }},
	{"MoveToPortSet", func(e *confEnv) error {
		// Move the name into a fresh set (exercises the member-side
		// checks; for setName the name itself is the would-be member).
		fresh, err := e.s.AllocatePortSet()
		if err != nil {
			return err
		}
		return e.s.MoveToPortSet(fresh, e.n)
	}},
	{"RemoveFromPortSet", func(e *confEnv) error {
		fresh, err := e.s.AllocatePortSet()
		if err != nil {
			return err
		}
		return e.s.RemoveFromPortSet(fresh, e.n)
	}},
	{"Deallocate", func(e *confEnv) error { return e.s.DeallocatePort(e.n) }},
}

// ok marks a cell whose operation must succeed.
var ok error = nil

// wouldBlock: the operation is legal but has nothing to do right now.
var wouldBlock = ErrWouldBlock

// conformance is the table: state -> op -> expected error. Every cell
// is asserted; a missing cell is a test bug (caught below).
var conformance = map[confState]map[string]error{
	stSendRecv: {
		"Send": ok, "Receive": wouldBlock, "Resolve": ok, "Status": ok,
		"Enable": ok, "Disable": ErrNotInSet, "SetBacklog": ok,
		"CopySendRight": ok, "CarrySend": ok, "CarryReceive": ok, "ReplyPort": ok,
		"RequestNoSenders": ok, "RequestDeadName": ok,
		"MoveToPortSet": ok, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stSendOnly: {
		"Send": ok, "Receive": ErrNotReceiver, "Resolve": ok, "Status": ok,
		"Enable": ErrNotReceiver, "Disable": ErrNotInSet, "SetBacklog": ErrNotReceiver,
		"CopySendRight": ok, "CarrySend": ok, "CarryReceive": ErrInvalidPort, "ReplyPort": ok,
		"RequestNoSenders": ErrNotReceiver, "RequestDeadName": ok,
		"MoveToPortSet": ErrNotReceiver, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stRecvOnly: {
		"Send": ErrInvalidPort, "Receive": wouldBlock, "Resolve": ok, "Status": ok,
		"Enable": ok, "Disable": ErrNotInSet, "SetBacklog": ok,
		"CopySendRight": ok, "CarrySend": ErrInvalidPort, "CarryReceive": ok, "ReplyPort": ok,
		"RequestNoSenders": ok, "RequestDeadName": ErrInvalidPort,
		"MoveToPortSet": ok, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stDeadName: {
		"Send": ErrDeadName, "Receive": ErrNotReceiver, "Resolve": ErrDeadName, "Status": ok,
		"Enable": ErrNotReceiver, "Disable": ErrNotInSet, "SetBacklog": ErrNotReceiver,
		"CopySendRight": ErrDeadName, "CarrySend": ErrDeadName, "CarryReceive": ErrInvalidPort, "ReplyPort": ErrDeadName,
		"RequestNoSenders": ErrNotReceiver, "RequestDeadName": ErrDeadName,
		"MoveToPortSet": ErrNotReceiver, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stDeadSR: {
		"Send": ErrDeadName, "Receive": ErrPortDied, "Resolve": ErrDeadName, "Status": ok,
		"Enable": ErrDeadName, "Disable": ErrNotInSet, "SetBacklog": ok,
		"CopySendRight": ErrDeadName, "CarrySend": ErrDeadName, "CarryReceive": ErrDeadName, "ReplyPort": ErrDeadName,
		"RequestNoSenders": ErrPortDied, "RequestDeadName": ErrDeadName,
		"MoveToPortSet": ErrDeadName, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stSetMember: {
		"Send": ok, "Receive": ErrInSet, "Resolve": ok, "Status": ok,
		"Enable": ok, "Disable": ok, "SetBacklog": ok,
		"CopySendRight": ok, "CarrySend": ok, "CarryReceive": ok, "ReplyPort": ok,
		"RequestNoSenders": ok, "RequestDeadName": ok,
		"MoveToPortSet": ok, "RemoveFromPortSet": ErrNotInSet, "Deallocate": ok,
	},
	stSetName: {
		"Send": ErrInvalidPort, "Receive": ErrNoEnabledPorts, "Resolve": ErrInvalidPort, "Status": ErrInvalidPort,
		// SetBacklog on a set name installs the set-wide queue cap.
		"Enable": ErrInvalidPort, "Disable": ErrInvalidPort, "SetBacklog": ok,
		"CopySendRight": ErrInvalidPort, "CarrySend": ErrInvalidPort, "CarryReceive": ErrInvalidPort, "ReplyPort": ErrInvalidPort,
		"RequestNoSenders": ErrNotReceiver, "RequestDeadName": ErrInvalidPort,
		"MoveToPortSet": ErrInvalidPort, "RemoveFromPortSet": ErrInvalidPort, "Deallocate": ok,
	},
	stMissing: {
		"Send": ErrInvalidPort, "Receive": ErrInvalidPort, "Resolve": ErrInvalidPort, "Status": ErrInvalidPort,
		"Enable": ErrInvalidPort, "Disable": ErrInvalidPort, "SetBacklog": ErrInvalidPort,
		"CopySendRight": ErrInvalidPort, "CarrySend": ErrInvalidPort, "CarryReceive": ErrInvalidPort, "ReplyPort": ErrInvalidPort,
		"RequestNoSenders": ErrInvalidPort, "RequestDeadName": ErrInvalidPort,
		"MoveToPortSet": ErrInvalidPort, "RemoveFromPortSet": ErrInvalidPort, "Deallocate": ErrInvalidPort,
	},
}

// TestPortRightConformance runs the full table: one fresh fixture per
// cell, expected error asserted exactly.
func TestPortRightConformance(t *testing.T) {
	for st, cells := range conformance {
		for _, op := range confOps {
			want, present := cells[op.name]
			if !present {
				t.Fatalf("table bug: state %q has no cell for %q", st, op.name)
			}
			t.Run(string(st)+"/"+op.name, func(t *testing.T) {
				e := buildState(t, st)
				got := op.run(e)
				if !errors.Is(got, want) && got != want {
					t.Fatalf("state %q op %q: got %v, want %v", st, op.name, got, want)
				}
			})
		}
		// Every op named in the table must exist.
		for name := range cells {
			found := false
			for _, op := range confOps {
				if op.name == name {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("table bug: state %q names unknown op %q", st, name)
			}
		}
	}
}

// TestZeroRightSectionOnSetName: a body section naming a port set with
// the zero Right value takes lookupRight's need==0 path, which must
// reject the set entry (no port behind it), not dereference it — the
// panic a malformed user message could otherwise trigger in kernel
// code.
func TestZeroRightSectionOnSetName(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	dst, _ := s.AllocatePort()
	err := s.Send(&Message{
		ID:         1,
		RemotePort: dst,
		Sections:   []Section{{Kind: PortRightSection, PortName: set}},
	}, SendOptions{NonBlocking: true})
	if err != ErrInvalidPort {
		t.Fatalf("zero-right section naming a set: %v, want ErrInvalidPort", err)
	}
}

// TestConformanceEmptySetReceive pins the one cell the table cannot
// express (nil error vs ErrWouldBlock vs ErrNoEnabledPorts): a
// non-blocking receive on an EMPTY set reports ErrNoEnabledPorts, on a
// non-empty idle set ErrWouldBlock.
func TestConformanceEmptySetReceive(t *testing.T) {
	s := NewSpace(0, nil)
	defer s.Destroy()
	set, _ := s.AllocatePortSet()
	if _, err := s.Receive(set, ReceiveOptions{NonBlocking: true}); err != ErrNoEnabledPorts {
		t.Fatalf("empty set: %v, want ErrNoEnabledPorts", err)
	}
	p, _ := s.AllocatePort()
	_ = s.MoveToPortSet(set, p)
	if _, err := s.Receive(set, ReceiveOptions{NonBlocking: true}); err != ErrWouldBlock {
		t.Fatalf("idle set: %v, want ErrWouldBlock", err)
	}
}
