package capsule

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// A whole-buffer DEFLATE (RFC 1951) decoder. A chunk arrives whole and its
// exact output length is known before decoding starts, so inflate writes
// straight into an output buffer of that length: back-references copy
// inside it, and there is no window, no io plumbing and no per-byte
// interface call. It accepts exactly the streams compress/flate's reader
// accepts under the chunk rule (fill the output exactly, end in a final
// block, consume every input byte), with byte-identical output;
// FuzzInflateMatchesStdlib holds the two to that.

// errInflate rejects a stream that is not valid DEFLATE.
var errInflate = errors.New("deflate: corrupt stream")

// Decode-table entries are uint32s:
//
//	bits  0-3   code length n, the bits the entry consumes
//	bits  4-6   kind
//	bits  8-15  extra bits (lengths, distances) or a sub-table's index bits
//	bits 16-30  value: a literal byte, a length or distance base, a code-
//	            length symbol, or a link's sub-table offset
//	bit  31     set on literals, so the common case is one sign test
//
// A primary table is indexed by as many next stream bits as the code's
// longest length, up to a cap; codes longer than the cap resolve through a
// link, whose own length is the primary bits, to a sub-table indexed by the
// bits after those.
const (
	entLenMask  = 15
	entKindMask = 7 << 4

	kindLit  = 0 << 4 // a literal byte (with litFlag); a distance; a code-length symbol
	kindLen  = 1 << 4 // a match length
	kindEOB  = 2 << 4 // end of block
	kindLink = 3 << 4 // go to a sub-table
	kindBad  = 4 << 4 // no such code: symbols 286-287 and 30-31, gaps of an empty or one-code tree

	litFlag = 1 << 31
)

// Primary-table caps: the literal/length table spans at most 10 bits, the
// distance table 8, and code-length codes are never longer than 7.
const (
	litCapBits  = 10
	distCapBits = 8
	clenBits    = 7
)

// Table sizes that hold any code's primary table and sub-tables: zlib's
// enough utility gives 1334 for 288 symbols, 10 primary bits and 15-bit
// codes, and 402 for 32 symbols, 8 primary bits and 15-bit codes.
const (
	litEnough  = 1334
	distEnough = 402
)

const (
	maxLitSyms  = 286
	maxDistSyms = 30
	maxPad      = 16 // virtual zero bytes read past the end before failing
)

// clenOrder is the order in which a dynamic header lists code-length code
// lengths.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// litBase, distBase and clenBase hold each symbol's entry without its code
// length; fixed holds the fixed-Huffman block's tables.
var (
	litBase  [288]uint32
	distBase [32]uint32
	clenBase [19]uint32
	fixed    inflater
)

func init() {
	for s := 0; s < 256; s++ {
		litBase[s] = litFlag | uint32(s)<<16 | kindLit
	}
	litBase[256] = kindEOB
	base := 3
	for s := 257; s < 285; s++ {
		extra := max(0, (s-261)/4)
		litBase[s] = uint32(base)<<16 | uint32(extra)<<8 | kindLen
		base += 1 << extra
	}
	litBase[285] = 258<<16 | kindLen
	litBase[286], litBase[287] = kindBad, kindBad
	base = 1
	for s := 0; s < 30; s++ {
		extra := max(0, (s-2)/2)
		distBase[s] = uint32(base)<<16 | uint32(extra)<<8 | kindLit
		base += 1 << extra
	}
	distBase[30], distBase[31] = kindBad, kindBad
	for s := range clenBase {
		clenBase[s] = uint32(s)<<16 | kindLit
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	buildTable(fixed.lit[:], lens[:], litBase[:], 9)
	for s := range distBase {
		lens[s] = 5
	}
	buildTable(fixed.dist[:], lens[:32], distBase[:], 5)
}

// inflater holds the decode tables of one dynamic block, 7.6 KB, so a
// decode allocates nothing but its output.
type inflater struct {
	lit  [litEnough]uint32
	dist [distEnough]uint32
	clen [1 << clenBits]uint32
	lens [maxLitSyms + maxDistSyms]uint8
}

// errDeflateLength rejects a chunk whose stream and declared length
// disagree: longer, shorter, not final, or trailed by extra bytes.
var errDeflateLength = errors.New("deflate stream does not end at its declared length")

// decodeInto inflates one DEFLATE chunk into a buffer of exactly its
// declared length: buf when its capacity holds it, the result aliasing buf
// then. A length above limit or the format's expansion ceiling is rejected
// before anything is allocated, and the stream must end right there, so a
// forged chunk can never allocate or emit more than the directory
// promises. With exact set, the declared length must be limit itself: a
// fixed-width capsule knows its size.
func (z *inflater) decodeInto(buf, chunk []byte, limit uint64, exact bool) ([]byte, error) {
	rawLen, n := binary.Uvarint(chunk)
	if n <= 0 {
		return nil, errors.New("bad deflate length")
	}
	if ceiling := 64 + uint64(len(chunk))*maxDeflateExpansion; rawLen > limit || rawLen > ceiling || exact && rawLen != limit {
		return nil, fmt.Errorf("implausible deflate length %d (limit %d, ceiling %d)", rawLen, limit, ceiling)
	}
	out := buf
	if uint64(cap(out)) < rawLen {
		out = make([]byte, rawLen)
	}
	out = out[:rawLen]
	if err := z.inflate(out, chunk[n:]); err != nil {
		return nil, err
	}
	return out, nil
}

// buildTable fills t with the decode table of the canonical code whose
// symbol s has length lens[s] (0: unused) and entry base[s]|length, and
// returns its primary bits: the longest length, at most capBits. Like
// compress/flate it accepts complete codes, one 1-bit code and the empty
// code; the last two leave kindBad where codes are missing. It reports
// false for any other code, and for tables that would not fit t.
func buildTable(t []uint32, lens []uint8, base []uint32, capBits uint) (uint, bool) {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	maxLen := uint(15)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		t[0] = kindBad
		return 0, true
	}
	left := 1
	var offs [16]int
	for l := uint(1); l <= maxLen; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return 0, false // over-subscribed
		}
		if l < 15 {
			offs[l+1] = offs[l] + count[l]
		}
	}
	if left > 0 && !(maxLen == 1 && count[1] == 1) {
		return 0, false // incomplete
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	pb := min(maxLen, capBits)
	if left > 0 {
		t[1] = kindBad // the one 1-bit code leaves code 1 unused
	}
	code, l := 0, uint(0)
	next := 1 << pb            // where the next sub-table goes
	sub, subBits := 0, uint(0) // the current sub-table
	prefix := -1               // its primary index
	for _, s := range sorted[:len(lens)-count[0]] {
		sl := uint(lens[s])
		code <<= sl - l
		l = sl
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		e := base[s] | uint32(l)
		code++
		if l <= pb {
			for i := rev; i < 1<<pb; i += 1 << l {
				t[i] = e
			}
			continue
		}
		if p := rev & (1<<pb - 1); p != prefix {
			// A new sub-table: as wide as the codes sharing this prefix
			// need, the fewest bits they fill. count holds the long codes
			// not yet placed, this one among them.
			subBits = l - pb
			room := 1 << subBits
			for subBits+pb < maxLen {
				room -= count[subBits+pb]
				if room <= 0 {
					break
				}
				subBits++
				room <<= 1
			}
			sub, prefix = next, p
			next += 1 << subBits
			if next > len(t) {
				return 0, false
			}
			t[p] = uint32(sub)<<16 | uint32(subBits)<<8 | kindLink | uint32(pb)
		}
		for i := rev >> pb; i < 1<<subBits; i += 1 << (l - pb) {
			t[sub+i] = e
		}
		count[l]--
	}
	return pb, true
}

// fill tops the bit buffer up to at least 56 bits: eight bytes at a time
// while eight remain, byte by byte near the end.
func fill(in []byte, pos int, bb uint64, nb uint) (int, uint64, uint, bool) {
	if pos+8 <= len(in) {
		return pos + int(63-nb)>>3, bb | binary.LittleEndian.Uint64(in[pos:])<<nb, nb | 56, true
	}
	return fillSlow(in, pos, bb, nb)
}

// fillSlow is fill near the end of the input: past it, zero bytes, at most
// maxPad of them. A valid stream never needs more than eight (a fill reads
// at most that far ahead of the bits consumed), and the end check rejects
// any stream that consumed one.
func fillSlow(in []byte, pos int, bb uint64, nb uint) (int, uint64, uint, bool) {
	for nb < 56 {
		if pos < len(in) {
			bb |= uint64(in[pos]) << nb
		} else if pos >= len(in)+maxPad {
			return pos, bb, nb, false
		}
		pos++
		nb += 8
	}
	return pos, bb, nb, true
}

// inflate decodes the raw DEFLATE stream in into out, which it must fill
// exactly, ending in a final block whose last bit is in the last byte of
// in.
func (z *inflater) inflate(out, in []byte) error {
	var (
		bb  uint64 // bit buffer, next bit lowest; above nb, stream bits or zeros
		nb  uint   // bits in bb
		pos int    // bytes of in loaded into bb, with padding past the end
		o   int    // bytes written to out
		ok  bool
	)
	for final := false; !final; {
		if pos, bb, nb, ok = fill(in, pos, bb, nb); !ok {
			return errInflate
		}
		final = bb&1 != 0
		typ := bb >> 1 & 3
		bb >>= 3
		nb -= 3
		t, lbits, dbits := &fixed, uint(9), uint(5)
		switch typ {
		case 0: // stored: LEN, NLEN, then LEN bytes from the next byte boundary
			bb >>= nb & 7
			nb -= nb & 7
			p := pos - int(nb>>3)
			if p+4 > len(in) {
				return errInflate
			}
			n := int(binary.LittleEndian.Uint16(in[p:]))
			if uint16(n) != ^binary.LittleEndian.Uint16(in[p+2:]) {
				return errInflate
			}
			p += 4
			if n > len(in)-p {
				return errInflate
			}
			if n > len(out)-o {
				return errDeflateLength
			}
			o += copy(out[o:], in[p:p+n])
			pos, bb, nb = p+n, 0, 0
			continue
		case 1:
		case 2:
			var err error
			if pos, bb, nb, lbits, dbits, err = z.readHeader(in, pos, bb, nb); err != nil {
				return err
			}
			t = z
		default:
			return errInflate
		}
		var err error
		if o, pos, bb, nb, err = decodeBlock(out, o, in, pos, bb, nb, t, uint64(1)<<lbits-1, uint64(1)<<dbits-1); err != nil {
			return err
		}
	}
	if o != len(out) || (8*pos-int(nb)+7)/8 != len(in) {
		return errDeflateLength
	}
	return nil
}

// decodeBlock decodes the symbols of one Huffman block with t's codes,
// whose primary tables span lmask and dmask, up to its end of block.
func decodeBlock(out []byte, o int, in []byte, pos int, bb uint64, nb uint, t *inflater, lmask, dmask uint64) (int, int, uint64, uint, error) {
	lit, dist := &t.lit, &t.dist
	for {
		// Fill, by hand, when fewer bits are left than the longest length
		// code with its extra bits and the longest distance code with its:
		// 15+5+15+13.
		if nb < 48 {
			if pos+8 <= len(in) {
				bb |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				var ok bool
				if pos, bb, nb, ok = fillSlow(in, pos, bb, nb); !ok {
					return o, pos, bb, nb, errInflate
				}
			}
		}
		e := lit[bb&lmask]
		if int32(e) < 0 { // a literal, the common case, ahead of links
			bb >>= e & entLenMask
			nb -= uint(e & entLenMask)
			if o >= len(out) {
				return o, pos, bb, nb, errDeflateLength
			}
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&entKindMask == kindLink {
			e = lit[e>>16+uint32(bb>>(e&entLenMask))&(1<<(e>>8&15)-1)]
		}
		bb >>= e & entLenMask
		nb -= uint(e & entLenMask)
		if int32(e) < 0 { // a literal with a long code
			if o >= len(out) {
				return o, pos, bb, nb, errDeflateLength
			}
			out[o] = byte(e >> 16)
			o++
			continue
		}
		switch e & entKindMask {
		case kindEOB:
			return o, pos, bb, nb, nil
		case kindBad:
			return o, pos, bb, nb, errInflate
		}
		eb := uint(e >> 8 & 15)
		length := int(e>>16) + int(bb&(1<<eb-1))
		bb >>= eb
		nb -= eb
		d := dist[bb&dmask]
		if d&entKindMask == kindLink {
			d = dist[d>>16+uint32(bb>>(d&entLenMask))&(1<<(d>>8&15)-1)]
		}
		if d&entKindMask != kindLit {
			return o, pos, bb, nb, errInflate
		}
		bb >>= d & entLenMask
		nb -= uint(d & entLenMask)
		eb = uint(d >> 8 & 15)
		distance := int(d>>16) + int(bb&(1<<eb-1))
		bb >>= eb
		nb -= eb
		if distance > o {
			return o, pos, bb, nb, errInflate
		}
		if length > len(out)-o {
			return o, pos, bb, nb, errDeflateLength
		}
		o = copyMatch(out, o, distance, length)
	}
}

// readHeader reads a dynamic block's header, the code lengths of its two
// codes, and builds their tables into z.
func (z *inflater) readHeader(in []byte, pos int, bb uint64, nb uint) (int, uint64, uint, uint, uint, error) {
	var ok bool
	if pos, bb, nb, ok = fill(in, pos, bb, nb); !ok {
		return 0, 0, 0, 0, 0, errInflate
	}
	nlit, ndist, nclen := int(bb&31)+257, int(bb>>5&31)+1, int(bb>>10&15)+4
	bb >>= 14
	nb -= 14
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return 0, 0, 0, 0, 0, errInflate
	}
	var clens [19]uint8
	for _, s := range clenOrder[:nclen] {
		if nb < 3 {
			if pos, bb, nb, ok = fill(in, pos, bb, nb); !ok {
				return 0, 0, 0, 0, 0, errInflate
			}
		}
		clens[s] = uint8(bb & 7)
		bb >>= 3
		nb -= 3
	}
	cbits, ok := buildTable(z.clen[:], clens[:], clenBase[:], clenBits)
	if !ok {
		return 0, 0, 0, 0, 0, errInflate
	}
	cmask := uint64(1)<<cbits - 1
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code-length code and its extra bits take at most 7+7.
		if nb < 14 {
			if pos, bb, nb, ok = fill(in, pos, bb, nb); !ok {
				return 0, 0, 0, 0, 0, errInflate
			}
		}
		e := z.clen[bb&cmask]
		if e&entKindMask != kindLit {
			return 0, 0, 0, 0, 0, errInflate
		}
		bb >>= e & entLenMask
		nb -= uint(e & entLenMask)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16: // repeat the previous length 3-6 times
			if i == 0 {
				return 0, 0, 0, 0, 0, errInflate
			}
			rep, val = 3+int(bb&3), lens[i-1]
			bb >>= 2
			nb -= 2
		case 17: // 3-10 zeros
			rep = 3 + int(bb&7)
			bb >>= 3
			nb -= 3
		default: // 11-138 zeros
			rep = 11 + int(bb&127)
			bb >>= 7
			nb -= 7
		}
		if rep > len(lens)-i {
			return 0, 0, 0, 0, 0, errInflate
		}
		for j := range lens[i : i+rep] {
			lens[i+j] = val
		}
		i += rep
	}
	lbits, ok := buildTable(z.lit[:], lens[:nlit], litBase[:], litCapBits)
	if !ok {
		return 0, 0, 0, 0, 0, errInflate
	}
	dbits, ok := buildTable(z.dist[:], lens[nlit:], distBase[:], distCapBits)
	if !ok {
		return 0, 0, 0, 0, 0, errInflate
	}
	return pos, bb, nb, lbits, dbits, nil
}

// copyMatch copies length bytes from dist back to out[o:] and returns the
// new end. Runs of one byte and overlapping matches, the common back-
// references of padded columns, copy a word or a doubling span at a time.
func copyMatch(out []byte, o, dist, length int) int {
	src, end := o-dist, o+length
	switch {
	case dist >= 8 && end+8 <= len(out):
		// Words, overshooting end by up to 7 bytes the decode overwrites
		// next: each word's source lies before its destination.
		for ; o < end; o, src = o+8, src+8 {
			binary.LittleEndian.PutUint64(out[o:], binary.LittleEndian.Uint64(out[src:]))
		}
	case dist >= length:
		copy(out[o:end], out[src:])
	case dist == 1:
		v := uint64(out[src]) * 0x0101010101010101
		for ; o+8 <= end; o += 8 {
			binary.LittleEndian.PutUint64(out[o:], v)
		}
		for ; o < end; o++ {
			out[o] = byte(v)
		}
	default:
		for o < end {
			o += copy(out[o:end], out[src:o])
		}
	}
	return end
}
