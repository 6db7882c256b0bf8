// Package rpc is the repository's MIG analogue: the single typed
// interface layer every server and client speak over Mach ports. In real
// Mach the procedure-shaped interfaces of the filesystem, data managers
// and system servers were generated by MIG from one interface definition;
// here the equivalent is a shared codec (Enc/Dec), a canonical
// status/errno space (Status), a server demux (Server) that an ipc.Loop
// serves, and typed client call helpers (Client). The seven service
// protocols of this repo — fs, netmem, camelot, agora, migrate, unixemu
// and the kernel task ports — all marshal through this package instead
// of hand-rolling little-endian payloads per server.
//
// Wire convention: a request payload is the typed fields of the call in
// order; a reply payload is one Status byte followed by the typed result
// fields. Port rights and out-of-line regions travel as additional
// message sections exactly as raw Mach messages carry them.
package rpc

import (
	"errors"
	"fmt"
)

// Status is the canonical status/errno space shared by every server. It
// is the first byte of every reply payload, so a client can always
// distinguish "call failed" from "call succeeded with these results"
// without per-server conventions (the seed repo had fs replying 0=ok
// while netmem's Attach replied 1=ok).
type Status uint8

// Canonical statuses. Servers map internal failures onto these; clients
// map them back to package-level sentinel errors.
const (
	// StatusOK: the call succeeded; result fields follow.
	StatusOK Status = iota
	// StatusBadID: the server has no handler for the request MsgID.
	StatusBadID
	// StatusBadArgs: the request payload was malformed or truncated.
	StatusBadArgs
	// StatusNotFound: the named object does not exist.
	StatusNotFound
	// StatusExists: the named object already exists.
	StatusExists
	// StatusFull: the server is out of space or slots.
	StatusFull
	// StatusTooLarge: an argument exceeds the server's limits.
	StatusTooLarge
	// StatusDead: the target object or task is gone.
	StatusDead
	// StatusServerErr: an internal server failure with no finer code.
	StatusServerErr
)

// Sentinel errors corresponding to the canonical statuses, returned by
// Status.Err and recognised by StatusOf.
var (
	// ErrBadID: the server rejected the message ID.
	ErrBadID = errors.New("rpc: unknown message id")
	// ErrBadArgs: the server could not decode the request.
	ErrBadArgs = errors.New("rpc: malformed request")
	// ErrNotFound: no object by that name.
	ErrNotFound = errors.New("rpc: not found")
	// ErrExists: the name is already in use.
	ErrExists = errors.New("rpc: already exists")
	// ErrFull: the server is out of space.
	ErrFull = errors.New("rpc: no space")
	// ErrTooLarge: argument over the server's limit.
	ErrTooLarge = errors.New("rpc: too large")
	// ErrDead: the target object is gone.
	ErrDead = errors.New("rpc: object gone")
	// ErrServer: unclassified server-side failure.
	ErrServer = errors.New("rpc: server failure")
	// ErrTruncated is the typed decode error: a payload ended before
	// the field being read. Dec sticks on it; it maps to StatusBadArgs.
	ErrTruncated = errors.New("rpc: truncated payload")
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadID:
		return "bad-id"
	case StatusBadArgs:
		return "bad-args"
	case StatusNotFound:
		return "not-found"
	case StatusExists:
		return "exists"
	case StatusFull:
		return "full"
	case StatusTooLarge:
		return "too-large"
	case StatusDead:
		return "dead"
	case StatusServerErr:
		return "server-error"
	default:
		return fmt.Sprintf("status-%d", uint8(s))
	}
}

// Err maps a status back to its sentinel error; StatusOK maps to nil and
// unknown statuses to ErrServer.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusBadID:
		return ErrBadID
	case StatusBadArgs:
		return ErrBadArgs
	case StatusNotFound:
		return ErrNotFound
	case StatusExists:
		return ErrExists
	case StatusFull:
		return ErrFull
	case StatusTooLarge:
		return ErrTooLarge
	case StatusDead:
		return ErrDead
	default:
		return ErrServer
	}
}

// statusError is an error carrying an explicit wire status, built with
// Errf. Servers use it to pick the exact status a failure reports.
type statusError struct {
	status Status
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// Unwrap lets errors.Is(err, rpc.ErrNotFound) etc. see through Errf.
func (e *statusError) Unwrap() error { return e.status.Err() }

// Errf builds an error that reports the given status on the wire. The
// formatted message is server-side diagnostics only; it never travels.
func Errf(s Status, format string, args ...any) error {
	return &statusError{status: s, msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps an error to the status a reply should carry: nil is
// StatusOK, Errf errors carry their chosen status, the sentinels map to
// their statuses (including ErrTruncated to StatusBadArgs), and anything
// else is StatusServerErr.
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	switch {
	case errors.Is(err, ErrBadID):
		return StatusBadID
	case errors.Is(err, ErrBadArgs), errors.Is(err, ErrTruncated):
		return StatusBadArgs
	case errors.Is(err, ErrNotFound):
		return StatusNotFound
	case errors.Is(err, ErrExists):
		return StatusExists
	case errors.Is(err, ErrFull):
		return StatusFull
	case errors.Is(err, ErrTooLarge):
		return StatusTooLarge
	case errors.Is(err, ErrDead):
		return StatusDead
	default:
		return StatusServerErr
	}
}
