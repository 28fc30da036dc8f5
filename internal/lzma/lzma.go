package lzma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Format constants.
const (
	magic = "LZL1"

	minMatch = 2
	maxMatch = minMatch + lenLowSyms + lenMidSyms + lenHighSyms - 1 // 273

	lenLowSyms  = 8
	lenMidSyms  = 8
	lenHighSyms = 256

	hashBits = 17
	hashSize = 1 << hashBits
	maxChain = 256
	niceLen  = 273

	// literal context: previous byte's top lcBits bits.
	lcBits = 4

	// coder states for the isMatch/isRep context.
	stLit   = 0
	stMatch = 1
	stRep   = 2
	nStates = 3
)

// ErrCorrupt is returned when a compressed stream fails to decode.
var ErrCorrupt = errors.New("lzma: corrupt stream")

// models is every adaptive probability of one stream, encoder or decoder,
// in one flat array: a stream starts by setting them all to probInit, and
// the coders below are windows into it.
type models [numProbs]prob

// Layout of models.
const (
	offIsMatch = 0
	offIsRep   = offIsMatch + nStates
	offLits    = offIsRep + nStates // 1<<lcBits literal trees of 256
	offLen     = offLits + 256<<lcBits
	offRepLen  = offLen + lenCoderProbs
	offDist    = offRepLen + lenCoderProbs // 6-bit distance-slot tree
	numProbs   = offDist + 1<<distSlotBits

	lenCoderProbs = 2 + lenLowSyms + lenMidSyms + lenHighSyms
	distSlotBits  = 6
)

func (m *models) reset() {
	for i := range m {
		m[i] = probInit
	}
}

func (m *models) isMatch() []prob { return m[offIsMatch : offIsMatch+nStates] }
func (m *models) isRep() []prob   { return m[offIsRep : offIsRep+nStates] }

// lit returns the 8-bit literal tree for the context of the previous byte:
// its top lcBits bits.
func (m *models) lit(prev byte) bitTree {
	off := offLits + int(prev>>(8-lcBits))<<8
	return bitTree{probs: m[off : off+256], nbits: 8}
}

func (m *models) lenCoder(off int) lenCoder {
	p := m[off : off+lenCoderProbs]
	return lenCoder{
		choice: p[:2],
		low:    bitTree{probs: p[2 : 2+lenLowSyms], nbits: 3},
		mid:    bitTree{probs: p[2+lenLowSyms : 2+lenLowSyms+lenMidSyms], nbits: 3},
		high:   bitTree{probs: p[2+lenLowSyms+lenMidSyms:], nbits: 8},
	}
}

func (m *models) distCoder() distCoder {
	return distCoder{slots: bitTree{probs: m[offDist:], nbits: distSlotBits}}
}

// lenCoder codes match lengths in [minMatch, maxMatch] with LZMA's
// low/mid/high split.
type lenCoder struct {
	choice         []prob // two
	low, mid, high bitTree
}

func (lc lenCoder) encode(e *rangeEncoder, length int) {
	l := length - minMatch
	switch {
	case l < lenLowSyms:
		e.encodeBit(&lc.choice[0], 0)
		lc.low.encode(e, uint32(l))
	case l < lenLowSyms+lenMidSyms:
		e.encodeBit(&lc.choice[0], 1)
		e.encodeBit(&lc.choice[1], 0)
		lc.mid.encode(e, uint32(l-lenLowSyms))
	default:
		e.encodeBit(&lc.choice[0], 1)
		e.encodeBit(&lc.choice[1], 1)
		lc.high.encode(e, uint32(l-lenLowSyms-lenMidSyms))
	}
}

func (lc lenCoder) decode(d *rangeDecoder) int {
	if d.decodeBit(&lc.choice[0]) == 0 {
		return minMatch + int(lc.low.decode(d))
	}
	if d.decodeBit(&lc.choice[1]) == 0 {
		return minMatch + lenLowSyms + int(lc.mid.decode(d))
	}
	return minMatch + lenLowSyms + lenMidSyms + int(lc.high.decode(d))
}

// distCoder codes distances (≥1) as a 6-bit slot plus direct bits.
type distCoder struct {
	slots bitTree
}

func distSlot(d uint32) uint32 {
	if d < 4 {
		return d
	}
	n := 31 - bits.LeadingZeros32(d)
	return uint32(n<<1) | (d>>(uint(n)-1))&1
}

func (dc distCoder) encode(e *rangeEncoder, dist uint32) {
	d := dist - 1
	slot := distSlot(d)
	dc.slots.encode(e, slot)
	if slot >= 4 {
		footer := int(slot)/2 - 1
		base := (2 | (d >> uint(footer) & 1)) << uint(footer)
		e.encodeDirect(d-base, footer)
	}
}

func (dc distCoder) decode(d *rangeDecoder) uint32 {
	slot := dc.slots.decode(d)
	if slot < 4 {
		return slot + 1
	}
	footer := int(slot)/2 - 1
	base := (2 | (slot & 1)) << uint(footer)
	return base + d.decodeDirect(footer) + 1
}

// MaxOutput is the default output bound of Decompress: a forged length
// header cannot make the decoder emit more than this many bytes.
const MaxOutput = 1 << 34

// MaxExpansion bounds the decoder's output-to-input ratio. The encoder's
// best case measures ~8100:1 on constant input (match length is capped at
// 273 and slot coding adds overhead), so 16384:1 cannot reject a stream
// this encoder produced — while garbage that forges a huge length header
// can only make the decoder do work proportional to the garbage's size.
const MaxExpansion = 1 << 14

// Decompress reverses Compress. It returns ErrCorrupt (possibly wrapped)
// for malformed input. Output is bounded by MaxOutput; callers that know
// the expected size should use DecompressLimit for a tighter bound.
func Decompress(comp []byte) ([]byte, error) {
	return DecompressLimit(comp, MaxOutput)
}

// DecompressLimit reverses Compress, rejecting streams whose declared
// output size exceeds limit. Corrupt or adversarial input can therefore
// never allocate (or emit) more than limit bytes.
func DecompressLimit(comp []byte, limit uint64) ([]byte, error) {
	if len(comp) < len(magic) || string(comp[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := comp[len(magic):]
	rawLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad length", ErrCorrupt)
	}
	if limit > MaxOutput {
		limit = MaxOutput
	}
	if byRatio := 64 + uint64(len(comp))*MaxExpansion; limit > byRatio {
		limit = byRatio
	}
	if rawLen > limit {
		return nil, fmt.Errorf("%w: implausible length %d (limit %d)", ErrCorrupt, rawLen, limit)
	}
	if rawLen == 0 {
		return []byte{}, nil
	}
	d := newRangeDecoder(rest[n:])
	m := new(models)
	m.reset()
	isMatch, isRep := m.isMatch(), m.isRep()
	lenC, repLenC, distC := m.lenCoder(offLen), m.lenCoder(offRepLen), m.distCoder()

	// Cap the preallocation: a forged length header must not OOM the
	// decoder; append still grows as far as the stream really goes.
	capHint := rawLen
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	state := stLit
	rep0 := uint32(1)
	var prev byte

	for uint64(len(out)) < rawLen {
		if d.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
		}
		if d.decodeBit(&isMatch[state]) == 0 {
			b := byte(m.lit(prev).decode(d))
			out = append(out, b)
			prev = b
			state = stLit
			continue
		}
		var length int
		if d.decodeBit(&isRep[state]) == 1 {
			length = repLenC.decode(d)
			state = stRep
		} else {
			length = lenC.decode(d)
			rep0 = distC.decode(d)
			state = stMatch
		}
		dist := int(rep0)
		if dist <= 0 || dist > len(out) {
			return nil, fmt.Errorf("%w: distance %d out of window %d", ErrCorrupt, dist, len(out))
		}
		if uint64(len(out)+length) > rawLen {
			return nil, fmt.Errorf("%w: output overrun", ErrCorrupt)
		}
		if src := len(out) - dist; dist >= length {
			out = append(out, out[src:src+length]...)
		} else {
			// The match overlaps its own output: bytes must be read as
			// they are written.
			for k := 0; k < length; k++ {
				out = append(out, out[src+k])
			}
		}
		prev = out[len(out)-1]
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	return out, nil
}
