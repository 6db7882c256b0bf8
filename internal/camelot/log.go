// Package camelot implements the transaction-system interaction of §8.3:
// a Camelot-style disk manager that keeps recoverable segments in virtual
// memory backed by the external pager interface, using write-ahead
// logging for permanent, failure-atomic transactions.
//
// The load-bearing behaviour from the paper: "When the disk manager
// receives a pager_flush_request from the kernel, it verifies that the
// proper log records have been written before writing the specified pages
// to disk." Here every pager_data_write (from eviction, flush or
// termination) is gated on forcing the log up to the page's LSN — the WAL
// invariant — and the package provides crash simulation plus redo/undo
// recovery to demonstrate failure atomicity.
package camelot

import (
	"errors"

	"repro/internal/rpc"
)

// recordKind discriminates log records.
type recordKind uint8

const (
	recUpdate recordKind = iota + 1
	recCommit
	recAbort
)

// logMagic marks a valid log block on disk.
const logMagic = 0xC4

// record is one write-ahead log entry: physical old-value/new-value
// logging for an update, or a transaction outcome.
type record struct {
	lsn    uint64
	tx     uint64
	kind   recordKind
	seg    uint32
	offset uint64
	old    []byte
	new    []byte
}

// recHeaderLen is the on-disk record prefix, encoded with the rpc codec:
// magic(1) kind(1) lsn(8) tx(8) seg(4) offset(8) plus the two u32 length
// prefixes of the old and new byte fields.
const recHeaderLen = 38

// encodeRun serializes records into consecutive log blocks of blockSize
// bytes, zero-padded: one buffer for one device write. e is scratch
// space for the encoder. Records must fit one block (enforced by
// MaxUpdate).
func encodeRun(recs []record, blockSize int, e *rpc.Enc) []byte {
	buf := make([]byte, len(recs)*blockSize)
	for i := range recs {
		r := &recs[i]
		p := e.Reset().
			U8(logMagic).U8(byte(r.kind)).
			U64(r.lsn).U64(r.tx).U32(r.seg).U64(r.offset).
			Bytes(r.old).Bytes(r.new).
			Payload()
		copy(buf[i*blockSize:], p)
	}
	return buf
}

// decodeRecord parses a log block; ok is false for unwritten or
// corrupted blocks.
func decodeRecord(b []byte) (record, bool) {
	d := rpc.NewDec(b)
	if d.U8() != logMagic {
		return record{}, false
	}
	r := record{
		kind:   recordKind(d.U8()),
		lsn:    d.U64(),
		tx:     d.U64(),
		seg:    d.U32(),
		offset: d.U64(),
	}
	// The block buffer is reused by the recovery scan; copy the
	// payloads out.
	r.old = append([]byte(nil), d.Bytes()...)
	r.new = append([]byte(nil), d.Bytes()...)
	if d.Err() != nil {
		return record{}, false
	}
	return r, true
}

// MaxUpdate returns the largest update payload a single log record can
// carry for the given log block size.
func MaxUpdate(blockSize int) int { return (blockSize - recHeaderLen) / 2 }

// ErrUpdateTooLarge is returned when a transactional write exceeds
// MaxUpdate.
var ErrUpdateTooLarge = errors.New("camelot: update exceeds log record capacity")
