package capsule

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when a CapsuleBox fails to decode.
var ErrCorrupt = errors.New("capsule: corrupt box")

// encbuf is a tiny append-only binary encoder: uvarints, length-prefixed
// strings/bytes, and delta-coded ascending int slices.
type encbuf struct {
	b []byte
}

func (e *encbuf) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encbuf) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *encbuf) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// ascInts delta-codes an ascending int slice (line numbers, outlier rows).
func (e *encbuf) ascInts(v []int) {
	e.uint(uint64(len(v)))
	prev := 0
	for _, x := range v {
		e.uint(uint64(x - prev))
		prev = x
	}
}

// decbuf is the matching decoder; it latches the first error.
type decbuf struct {
	b   []byte
	pos int
	err error
}

func (d *decbuf) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.pos)
	}
}

// uint reads a uvarint. Directory fields are mostly below 128: a one-byte
// value skips the general decode.
func (d *decbuf) uint() uint64 {
	if p := d.pos; p < len(d.b) && d.b[p] < 0x80 && d.err == nil {
		d.pos = p + 1
		return uint64(d.b[p])
	}
	return d.uintSlow()
}

func (d *decbuf) uintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

// maxFieldValue bounds every size-like field read from untrusted metadata
// (row counts, widths, lengths). Values above it cannot occur in a box
// built from a real log block and would overflow or mis-size downstream
// allocations if trusted.
const maxFieldValue = 1<<31 - 1

// size reads a non-negative size-like field, rejecting implausible values
// so they can never become negative ints or overflow products downstream.
// A one-byte value, the common case, is read here without the call to
// uint: six of a capsule's eight directory fields are sizes.
func (d *decbuf) size() int {
	if p := d.pos; p < len(d.b) && d.b[p] < 0x80 && d.err == nil {
		d.pos = p + 1
		return int(d.b[p])
	}
	v := d.uintSlow()
	if d.err != nil {
		return 0
	}
	if v > maxFieldValue {
		d.fail("implausible size field")
		return 0
	}
	return int(v)
}

// int reads a zig-zag varint, a one-byte value as uint does.
func (d *decbuf) int() int {
	if p := d.pos; p < len(d.b) && d.b[p] < 0x80 && d.err == nil {
		d.pos = p + 1
		u := int(d.b[p])
		return u>>1 ^ -(u & 1)
	}
	return d.intSlow()
}

func (d *decbuf) intSlow() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return int(v)
}

// length reads a count and sanity-checks it against the remaining bytes so
// corrupt input cannot trigger huge allocations.
func (d *decbuf) length(min int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	// No more than the whole buffer, and no more than fit in the rest at
	// min bytes apiece, the last possibly shorter (n-1 > rest/min, without
	// the division).
	if min > 0 && n > 0 && (n > uint64(len(d.b)) || (n-1)*uint64(min) > uint64(len(d.b)-d.pos)) {
		d.fail("implausible length")
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed string and returns its bytes, uncopied.
func (d *decbuf) bytes() []byte {
	n := d.length(1)
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.b) {
		d.fail("string overruns buffer")
		return nil
	}
	d.pos += n
	return d.b[d.pos-n : d.pos]
}

// ascInts decodes a delta-coded ascending slice into the next run of the
// ints slab.
func (d *decbuf) ascInts(ints *slab[int]) []int {
	n := d.length(1)
	if d.err != nil {
		return nil
	}
	out := ints.take(n)
	prev := 0
	for i := 0; i < n; i++ {
		prev += int(d.uint())
		out[i] = prev
		if d.err != nil {
			return nil
		}
	}
	return out
}
