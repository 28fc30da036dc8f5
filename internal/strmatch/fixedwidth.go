package strmatch

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Pad is the byte used to pad values of a Capsule to the Capsule's width.
// 0x00 cannot appear in text logs, so a keyword never contains it and a
// fixed-length scan's hit can never straddle the padding of a value (paper
// §5.2).
const Pad = 0x00

// Kind is the flavor of constraint a keyword part puts on a Capsule value
// during runtime-pattern matching (§5.1): the part must be the whole value,
// its prefix, its suffix, or any substring of it.
type Kind uint8

const (
	// Exact requires the value to equal the part.
	Exact Kind = iota
	// Prefix requires the value to start with the part.
	Prefix
	// Suffix requires the value to end with the part.
	Suffix
	// Substr requires the part to occur anywhere inside the value.
	Substr
)

// String returns the constraint kind name.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Prefix:
		return "prefix"
	case Suffix:
		return "suffix"
	case Substr:
		return "substr"
	}
	return "unknown"
}

// FixedWidth searches a decompressed Capsule payload: rows of exactly width
// bytes, each a value right-padded with Pad. Row lookup is O(1) — this is
// the benefit the paper buys with padding.
type FixedWidth struct {
	buf   []byte
	width int
	rows  int
}

// NewFixedWidth wraps buf, which must be rows*width bytes of width-padded
// values. A width of 0 (all values empty) yields a searcher with zero rows
// of content; use Rows to know the count in that case is also zero.
func NewFixedWidth(buf []byte, width int) *FixedWidth {
	fw := &FixedWidth{buf: buf, width: width}
	if width > 0 {
		fw.rows = len(buf) / width
	}
	return fw
}

// Rows returns the number of values.
func (fw *FixedWidth) Rows() int { return fw.rows }

// Bytes returns the payload size a full scan examines.
func (fw *FixedWidth) Bytes() int { return len(fw.buf) }

// Width returns the padded value width.
func (fw *FixedWidth) Width() int { return fw.width }

// Value returns the unpadded value of row i.
func (fw *FixedWidth) Value(i int) []byte {
	return Unpad(fw.buf[i*fw.width : (i+1)*fw.width])
}

// Unpad returns row without its trailing Pad bytes, the value a padded row
// holds. It tests eight bytes at a time: in a little-endian load of a row's
// last eight bytes, its trailing Pad bytes are the word's leading zero bytes.
func Unpad(row []byte) []byte {
	n := len(row)
	for n >= 8 {
		w := binary.LittleEndian.Uint64(row[n-8 : n])
		if w != 0 {
			return row[:n-bits.LeadingZeros64(w)/8]
		}
		n -= 8
	}
	for n > 0 && row[n-1] == Pad {
		n--
	}
	return row[:n]
}

// FindRows returns every row whose value satisfies (kind, part), ascending.
// It scans the packed buffer once and converts positions to rows by
// division, verifying that a hit does not cross a row boundary.
func (fw *FixedWidth) FindRows(part string, kind Kind) []int {
	var out []int
	fw.ScanRows(part, kind, func(row int) bool {
		out = append(out, row)
		return true
	})
	return out
}

// ScanRows calls fn with each matching row in ascending order; fn returning
// false stops the scan.
//
// Exact and Prefix compare each row head with one masked 8-byte load (and
// the rest of the part only when the head agrees). Suffix and Substr run
// bytes.Index over the whole packed buffer: a hit's row is its position
// divided by the width, a hit straddling two rows resumes one byte later,
// and an accepted row resumes the scan at the next row's start.
func (fw *FixedWidth) ScanRows(part string, kind Kind, fn func(row int) bool) {
	if fw.rows == 0 {
		return
	}
	if len(part) > fw.width {
		return // cannot fit in any value
	}
	if part == "" {
		// Every value contains/starts with/ends with the empty string;
		// Exact matches only empty values.
		for i := 0; i < fw.rows; i++ {
			if kind == Exact && len(fw.Value(i)) != 0 {
				continue
			}
			if !fn(i) {
				return
			}
		}
		return
	}
	switch kind {
	case Exact, Prefix:
		fw.scanHeads(part, kind == Exact, fn)
	case Suffix, Substr:
		fw.scanBody(part, kind == Suffix, fn)
	}
}

// scanHeads reports the rows that start with part and, when exact, hold
// nothing after it. An exact part shorter than the width is compared
// together with the Pad byte that must follow it.
func (fw *FixedWidth) scanHeads(part string, exact bool, fn func(row int) bool) {
	n := len(part)
	if exact && n < fw.width {
		n++ // and the Pad after it, which want holds: Pad is 0x00
	}
	head := min(n, 8)
	var want [8]byte
	copy(want[:], part)
	mask := ^uint64(0) >> (64 - 8*head)
	key := binary.LittleEndian.Uint64(want[:]) & mask
	rest := part[min(len(part), head):]
	w, buf := fw.width, fw.buf
	i := 0
	// Rows whose 8-byte load stays inside the buffer take the fast path;
	// the load covers the whole comparison unless it is longer than 8.
	for ; i < fw.rows && i*w+8 <= len(buf); i++ {
		base := i * w
		if binary.LittleEndian.Uint64(buf[base:])&mask != key {
			continue
		}
		if n > 8 && (string(buf[base+8:base+8+len(rest)]) != rest || n > len(part) && buf[base+len(part)] != Pad) {
			continue
		}
		if !fn(i) {
			return
		}
	}
	for ; i < fw.rows; i++ {
		base := i * w
		if string(buf[base:base+len(part)]) != part || n > len(part) && buf[base+len(part)] != Pad {
			continue
		}
		if !fn(i) {
			return
		}
	}
}

// scanBody reports the rows that contain part — anywhere, or when suffix
// only where it ends the value — finding candidates with bytes.Index.
func (fw *FixedWidth) scanBody(part string, suffix bool, fn func(row int) bool) {
	w, buf, p := fw.width, fw.buf, []byte(part)
	for pos := 0; pos+len(p) <= len(buf); {
		j := bytes.Index(buf[pos:], p)
		if j < 0 {
			return
		}
		pos += j
		row := pos / w
		end := pos + len(p)
		rowEnd := (row + 1) * w
		if end > rowEnd || suffix && end != rowEnd && buf[end] != Pad {
			pos++ // straddles a row boundary, or is not at the value's end
			continue
		}
		if !fn(row) {
			return
		}
		pos = rowEnd
	}
}
