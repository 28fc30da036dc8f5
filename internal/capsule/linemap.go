package capsule

import (
	"fmt"
	"math/bits"
)

// LineMap is the ascending block line numbers of one group's rows (or of
// the block's outlier lines). A map built by the compressor holds its
// numbers; one read from a box holds the Rice bitstream the box stores and
// decodes it on first touch — most queries need the numbers of a few groups
// only, and none before they have matches.
type LineMap struct {
	rows  int
	lines []int // nil until decoded while enc is set

	// A stored map before (and after) its first touch: the Rice parameter,
	// the bitstream (aliasing the box buffer) and the block's line count,
	// which bounds every number.
	k     uint8
	enc   []byte
	limit int
	err   error // latched decode failure
}

// NewLineMap wraps ascending line numbers.
func NewLineMap(lines []int) LineMap { return LineMap{rows: len(lines), lines: lines} }

// Rows returns how many line numbers the map holds; it never decodes.
func (m *LineMap) Rows() int { return m.rows }

// Pending reports whether the next Lines call has to decode the bitstream.
func (m *LineMap) Pending() bool { return m.lines == nil && m.rows > 0 && m.err == nil }

// Lines returns the line numbers, decoding a Rice bitstream on first
// touch. That decode is where a stored map is validated: exactly Rows
// numbers, strictly ascending, each below the block's line count, the
// bitstream consumed to its last byte with zero padding. The result is
// shared; callers must not modify it.
func (m *LineMap) Lines() ([]int, error) {
	if m.Pending() {
		m.lines, m.err = decodeRice(m.enc, uint(m.k), m.rows, m.limit)
	}
	return m.lines, m.err
}

// maxRiceParam bounds the Rice parameter: gaps are below maxFieldValue, so
// no useful parameter exceeds 31, and the decoder's 64-bit window relies on
// it.
const maxRiceParam = 31

// riceEscape is the quotient at which a gap leaves the Rice code: that many
// one-bits announce the gap written out plainly instead. It bounds what a
// rare long jump costs — a group whose lines come in bursts (interleaved
// sources) has a few gaps thousands of times its typical one, and in pure
// Rice code each would cost gap>>k bits.
const riceEscape = 16

// gapBits is the width of an escaped gap: enough for any gap of a block of
// limit lines.
func gapBits(limit int) uint { return uint(bits.Len(uint(limit))) }

// riceParam returns the parameter that codes the gaps of lines in the
// fewest bits, and the byte length of that code: a gap g costs (g>>k)+1+k
// bits, or riceEscape+gapBits once g>>k reaches riceEscape.
func riceParam(lines []int, limit int) (k uint, size int) {
	w := gapBits(limit)
	bestK, bestBits := uint(0), uint64(1)<<63
	for k := uint(0); k <= min(w, maxRiceParam); k++ {
		total := uint64(0)
		prev := -1
		for _, l := range lines {
			if q := uint64(l-prev-1) >> k; q < riceEscape {
				total += q + 1 + uint64(k)
			} else {
				total += riceEscape + uint64(w)
			}
			prev = l
		}
		if total < bestBits {
			bestK, bestBits = k, total
		}
	}
	return bestK, int((bestBits + 7) / 8)
}

// appendRice appends the code of strictly ascending lines below limit: per
// number the gap to its predecessor minus one (the first counts from -1),
// as gap>>k one-bits, a zero bit, then the low k bits — or, when gap>>k
// would reach riceEscape, riceEscape one-bits and the gap in gapBits(limit)
// bits. Most significant bit first, the last byte zero-padded.
func appendRice(dst []byte, lines []int, k uint, limit int) []byte {
	var acc uint64 // pending bits, right-aligned
	var n uint     // how many
	put := func(v uint64, width uint) {
		acc = acc<<width | v
		n += width
		for n >= 8 {
			dst = append(dst, byte(acc>>(n-8)))
			n -= 8
		}
	}
	w := gapBits(limit)
	prev := -1
	for _, l := range lines {
		if l <= prev || l >= limit {
			panic("capsule: line map not strictly ascending inside the block")
		}
		gap := uint64(l - prev - 1)
		prev = l
		if q := gap >> k; q < riceEscape {
			put(1<<q-1, uint(q))
			put(gap&(1<<k-1), k+1) // the terminating zero bit rides on top
		} else {
			put(1<<riceEscape-1, riceEscape)
			put(gap, w)
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc<<(8-n)))
	}
	return dst
}

// decodeRice is appendRice's inverse over untrusted bytes; see
// LineMap.Lines for what it enforces. It allocates rows ints, which the
// caller has bounded by the stream size (a code is at least one bit).
func decodeRice(enc []byte, k uint, rows, limit int) ([]int, error) {
	bad := func(what string) ([]int, error) {
		return nil, fmt.Errorf("%w: line map: %s", ErrCorrupt, what)
	}
	if k > maxRiceParam || rows < 0 || rows > 8*len(enc) || limit < 0 || limit > maxFieldValue {
		return bad("implausible header")
	}
	out := make([]int, rows)
	var acc uint64 // unread bits, left-aligned; bits past n are zero
	var n uint
	pos := 0
	refill := func() {
		for n <= 56 && pos < len(enc) {
			acc |= uint64(enc[pos]) << (56 - n)
			pos++
			n += 8
		}
	}
	w := gapBits(limit)
	prev := -1
	for i := range out {
		// A refilled window shows the whole unary part, which ends within
		// riceEscape+1 bits; q never exceeds n, the bits past n being zero.
		refill()
		q := uint(bits.LeadingZeros64(^acc))
		var gap uint64
		if q >= riceEscape {
			acc <<= riceEscape
			n -= riceEscape
			refill()
			if n < w {
				return bad("truncated")
			}
			gap = acc >> (64 - w)
			acc <<= w
			n -= w
			if gap>>k < riceEscape {
				return bad("escaped a short gap")
			}
		} else {
			if q >= n {
				return bad("truncated")
			}
			acc <<= q + 1
			n -= q + 1
			refill()
			if n < k {
				return bad("truncated")
			}
			gap = uint64(q)<<k | acc>>(64-k)
			acc <<= k
			n -= k
		}
		line := prev + 1 + int(gap)
		if line >= limit {
			return bad("line beyond block")
		}
		out[i] = line
		prev = line
	}
	if pos != len(enc) || n >= 8 || acc != 0 {
		return bad("trailing bits")
	}
	return out, nil
}
