package lzma

import "errors"

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024: p = 0.5
	probMoves = 5                   // adaptation shift
	topValue  = 1 << 24
)

// prob is an adaptive binary probability in [0, 2048).
type prob uint16

// rangeEncoder is a standard LZMA-style range encoder with carry handling.
// It appends to out, which the owning encoder keeps across calls as scratch.
type rangeEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// reset starts a new stream that appends to out.
func (e *rangeEncoder) reset(out []byte) {
	*e = rangeEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: out}
}

func (e *rangeEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		carry := byte(e.low >> 32)
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rangeEncoder) encodeBit(p *prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoves
	}
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

// encodeDirect encodes the low n bits of v at fixed probability 1/2.
func (e *rangeEncoder) encodeDirect(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		e.rng >>= 1
		if (v>>uint(i))&1 == 1 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.shiftLow()
			e.rng <<= 8
		}
	}
}

func (e *rangeEncoder) flush() {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
}

var errTruncated = errors.New("lzma: truncated stream")

// rangeDecoder mirrors rangeEncoder.
type rangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	err  error
}

func newRangeDecoder(in []byte) *rangeDecoder {
	d := &rangeDecoder{rng: 0xFFFFFFFF, in: in}
	// The encoder's first shifted byte is always 0 (cache starts at 0).
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *rangeDecoder) next() byte {
	if d.pos >= len(d.in) {
		d.err = errTruncated
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *rangeDecoder) decodeBit(p *prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMoves
		bit = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bit
}

func (d *rangeDecoder) decodeDirect(n int) uint32 {
	code, rng, pos, in := d.code, d.rng, d.pos, d.in
	var res uint32
	for ; n > 0; n-- {
		rng >>= 1
		var bit uint32
		if code >= rng {
			code -= rng
			bit = 1
		}
		res = res<<1 | bit
		for rng < topValue {
			rng <<= 8
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else if d.err == nil {
				d.err = errTruncated
			}
			code = code<<8 | uint32(b)
		}
	}
	d.code, d.rng, d.pos = code, rng, pos
	return res
}

// bitTree codes an n-bit symbol MSB-first through a tree of adaptive probs.
// It is a view: probs is a 1<<nbits window of a models array.
type bitTree struct {
	probs []prob
	nbits int
}

func (t bitTree) encode(e *rangeEncoder, sym uint32) {
	m := uint32(1)
	for i := t.nbits - 1; i >= 0; i-- {
		bit := int((sym >> uint(i)) & 1)
		e.encodeBit(&t.probs[m], bit)
		m = m<<1 | uint32(bit)
	}
}

// decode keeps the decoder state in locals across the symbol's bits; this
// loop dominates decompression time, so it trades a little duplication
// with decodeBit for register residency.
func (t bitTree) decode(d *rangeDecoder) uint32 {
	code, rng, pos, in := d.code, d.rng, d.pos, d.in
	probs := t.probs
	m := uint32(1)
	for i := 0; i < t.nbits; i++ {
		p := probs[m]
		bound := (rng >> probBits) * uint32(p)
		var bit uint32
		if code < bound {
			rng = bound
			probs[m] = p + (1<<probBits-p)>>probMoves
		} else {
			code -= bound
			rng -= bound
			probs[m] = p - p>>probMoves
			bit = 1
		}
		m = m<<1 | bit
		for rng < topValue {
			rng <<= 8
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else if d.err == nil {
				d.err = errTruncated
			}
			code = code<<8 | uint32(b)
		}
	}
	d.code, d.rng, d.pos = code, rng, pos
	return m - 1<<t.nbits
}
