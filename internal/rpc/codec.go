package rpc

import "repro/internal/ipc"

// All integers are little-endian. Variable-length fields (String, Bytes)
// carry a u32 length prefix; Tail is the unprefixed remainder of the
// payload and must be the last field of a message.

// PutU64 stores v little-endian into the first 8 bytes of b. It is the
// word-store primitive for code that treats task virtual memory as an
// array of u64 words (the agora bakery lock, the unixemu u-area).
func PutU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// U64 loads a little-endian u64 from b, or 0 if b is shorter than 8
// bytes (matching the tolerant word-read semantics shared-memory callers
// want).
func U64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Enc is a cursor encoder building a message payload field by field.
// Methods return the encoder so calls chain:
//
//	rpc.NewEnc().U64(size).String(name).Payload()
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 64)} }

// EncOver returns an encoder that writes into b from its start, for a
// caller that owns the storage (a pooled message's own buffer): a payload
// that fits cap(b) is encoded without allocating.
func EncOver(b []byte) Enc { return Enc{buf: b[:0]} }

// U8 appends one byte.
func (e *Enc) U8(v uint8) *Enc {
	e.buf = append(e.buf, v)
	return e
}

// U16 appends a little-endian u16.
func (e *Enc) U16(v uint16) *Enc {
	e.buf = append(e.buf, byte(v), byte(v>>8))
	return e
}

// U32 appends a little-endian u32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return e
}

// U64 appends a little-endian u64.
func (e *Enc) U64(v uint64) *Enc {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	return e
}

// Status appends a status byte.
func (e *Enc) Status(s Status) *Enc { return e.U8(uint8(s)) }

// Name appends a port name (u32).
func (e *Enc) Name(n ipc.Name) *Enc { return e.U32(uint32(n)) }

// String appends a u32 length prefix and the string bytes.
func (e *Enc) String(s string) *Enc {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Bytes appends a u32 length prefix and the raw bytes.
func (e *Enc) Bytes(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Tail appends raw bytes with no length prefix. It must be the last
// field: the decoder's Tail() consumes everything that remains.
func (e *Enc) Tail(b []byte) *Enc {
	e.buf = append(e.buf, b...)
	return e
}

// Reset empties the encoder for reuse, keeping the buffer capacity. A
// caller may only reset an encoder whose previous payload is no longer
// referenced — for a synchronous Call that is as soon as the call
// returns, since the server consumed the request before replying.
func (e *Enc) Reset() *Enc {
	e.buf = e.buf[:0]
	return e
}

// Payload returns the encoded bytes.
func (e *Enc) Payload() []byte {
	if e == nil {
		return nil
	}
	return e.buf
}

// Dec is a length-checked cursor decoder. Every read verifies the field
// fits the remaining payload; a truncated payload sets a sticky
// ErrTruncated error and all further reads return zero values. Callers
// read their fields and then check Err() once — no per-field error
// handling, and no way to silently misread a short or garbage payload.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder positioned at the start of b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Reset repositions the decoder at the start of b, clearing any sticky
// error.
func (d *Dec) Reset(b []byte) { *d = Dec{buf: b} }

// Err returns the sticky decode error, nil if every read so far fit.
func (d *Dec) Err() error { return d.err }

// Remaining reports the bytes left to read.
func (d *Dec) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

// take reserves n bytes, or sticks ErrTruncated.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian u16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian u32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian u64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Status reads a status byte.
func (d *Dec) Status() Status { return Status(d.U8()) }

// Name reads a port name (u32).
func (d *Dec) Name() ipc.Name { return ipc.Name(d.U32()) }

// String reads a u32-length-prefixed string.
func (d *Dec) String() string {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a u32-length-prefixed byte field. The returned slice
// aliases the payload; callers that retain it past the message must
// copy.
func (d *Dec) Bytes() []byte {
	n := d.U32()
	return d.take(int(n))
}

// Tail returns the unread remainder of the payload (nil after an error).
func (d *Dec) Tail() []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}

// ListCap bounds a wire-declared element count to a safe slice
// preallocation size: a garbage count must fail on its first decoded
// element, not allocate first. The unsigned compare also keeps the
// conversion from overflowing on 32-bit platforms.
func ListCap(n uint32) int {
	if n > 1024 {
		return 1024
	}
	return int(n)
}
