package lzma

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// encoder is everything Compress needs that outlives one call: the match
// finder's tables, the probability models and the range coder's output
// scratch. A CapsuleBox is hundreds of small payloads, so building these
// per call costs more than the compression itself; an encoder is instead
// taken from a pool, used for one payload and returned, and each archive
// worker or ingest sealer ends up cycling its own.
//
// Reuse never shows in the output: every call starts from the same models,
// coder state and (logically) empty match finder as a fresh encoder would.
type encoder struct {
	m  models
	rc rangeEncoder
	mf matchFinder
}

var encoders = sync.Pool{New: func() any { return newEncoder() }}

func newEncoder() *encoder {
	return &encoder{mf: matchFinder{head: make([]int32, hashSize), base: 1}}
}

// maxPooledChain is the largest chain buffer (in entries, 4 bytes each) an
// encoder may take back to the pool. A payload beyond it costs the next
// call a fresh encoder, which is noise next to compressing 4 MiB; without
// the cap, one oversized payload would pin tens of MB in every P's pool
// slot until the pool is next cleared.
const maxPooledChain = 4 << 20

// Compress compresses data. The output is self-framing and decompressed by
// Decompress. Compress never fails; empty input yields a header-only frame.
// It is safe for concurrent use.
func Compress(data []byte) []byte {
	e := encoders.Get().(*encoder)
	out := e.compress(data)
	if cap(e.mf.chain) <= maxPooledChain {
		encoders.Put(e)
	}
	return out
}

// compress returns a fresh slice holding the frame for data, and leaves the
// encoder ready for the next payload with no reference to this one.
func (e *encoder) compress(data []byte) []byte {
	buf := append(e.rc.out[:0], magic...)
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	e.rc.reset(buf)
	if len(data) > 0 {
		e.m.reset()
		e.mf.reset(data)
		e.encode(data)
		e.rc.flush()
		e.mf.release()
	}
	out := make([]byte, len(e.rc.out))
	copy(out, e.rc.out)
	return out
}

// encode codes data into e.rc: greedy LZ77 with a rep0 preference and
// one-step lazy matching.
func (e *encoder) encode(data []byte) {
	rc, m, mf := &e.rc, &e.m, &e.mf
	isMatch, isRep := m.isMatch(), m.isRep()
	lenC, repLenC, distC := m.lenCoder(offLen), m.lenCoder(offRepLen), m.distCoder()

	state := stLit
	rep0 := uint32(1)
	var prev byte

	i := 0
	for i < len(data) {
		matchLen, matchDist := mf.find(i)
		repLen := matchAt(data, i, rep0)

		// Prefer the rep match when it is nearly as long — it codes much
		// smaller (no distance).
		useRep := repLen >= minMatch && (repLen+2 >= matchLen || matchLen < minMatch)

		bestLen := matchLen
		if useRep {
			bestLen = repLen
		}

		// One-step lazy matching: if the next position has a strictly
		// longer normal match, emit a literal here instead.
		lazy := false
		if bestLen >= minMatch && !useRep && bestLen < niceLen && i+1 < len(data) {
			nextLen, _ := mf.find(i + 1)
			lazy = nextLen > bestLen
		}

		if bestLen < minMatch || lazy {
			rc.encodeBit(&isMatch[state], 0)
			m.lit(prev).encode(rc, uint32(data[i]))
			prev = data[i]
			state = stLit
			mf.insert(i)
			i++
			continue
		}

		rc.encodeBit(&isMatch[state], 1)
		if useRep {
			rc.encodeBit(&isRep[state], 1)
			repLenC.encode(rc, repLen)
			state = stRep
		} else {
			rc.encodeBit(&isRep[state], 0)
			lenC.encode(rc, matchLen)
			distC.encode(rc, matchDist)
			rep0 = matchDist
			state = stMatch
		}
		for k := 0; k < bestLen; k++ {
			mf.insert(i + k)
		}
		i += bestLen
		prev = data[i-1]
	}
}

// matchLen returns how many leading bytes of data[i:] and data[j:] agree,
// up to limit. It needs j < i and i+limit <= len(data).
func matchLen(data []byte, j, i, limit int) int {
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(data[j+n:]) ^ binary.LittleEndian.Uint64(data[i+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && data[j+n] == data[i+n] {
		n++
	}
	return n
}

// matchAt returns the length (capped at maxMatch) of the match between
// data[i:] and data[i-dist:], or 0 when dist is out of window.
func matchAt(data []byte, i int, dist uint32) int {
	d := int(dist)
	if d <= 0 || d > i {
		return 0
	}
	return matchLen(data, i-d, i, min(len(data)-i, maxMatch))
}

// matchFinder is a hash-chain match finder over the whole input (the window
// is the full block: capsules are small relative to memory).
//
// head and chain hold base+position, so an entry below base is empty. A
// payload of n bytes stores values in [base, base+n); release then moves
// base past them, which empties the whole head table for the next payload
// without writing to it. chain needs no clearing at all: an entry is only
// read after insert wrote it for the current payload.
type matchFinder struct {
	data  []byte
	head  []int32
	chain []int32 // grows to the largest payload seen
	base  int32
}

func (mf *matchFinder) reset(data []byte) {
	// Out of int32 room for this payload's positions: start over.
	if int64(mf.base)+int64(len(data)) > math.MaxInt32 {
		clear(mf.head)
		mf.base = 1
	}
	if cap(mf.chain) < len(data) {
		mf.chain = make([]int32, len(data))
	}
	mf.chain = mf.chain[:len(data)]
	mf.data = data
}

func (mf *matchFinder) release() {
	mf.base += int32(len(mf.data))
	mf.data = nil
}

// hash needs i+4 <= len(mf.data).
func (mf *matchFinder) hash(i int) uint32 {
	v := binary.LittleEndian.Uint32(mf.data[i:])
	return (v * 2654435761) >> (32 - hashBits)
}

// insert adds position i to the hash chains.
func (mf *matchFinder) insert(i int) {
	if i+4 > len(mf.data) {
		return
	}
	h := mf.hash(i)
	mf.chain[i] = mf.head[h]
	mf.head[h] = mf.base + int32(i)
}

// find returns the best (length, distance) match at position i among chained
// candidates, without inserting i. Only inserted (earlier) positions take
// part, so it also serves to probe i+1 for lazy matching.
func (mf *matchFinder) find(i int) (length int, dist uint32) {
	data := mf.data
	if i+4 > len(data) {
		return 0, 0
	}
	cand := mf.head[mf.hash(i)]
	bestLen := 0
	var bestDist uint32
	limit := min(len(data)-i, maxMatch)
	for chainLen := 0; cand >= mf.base && chainLen < maxChain; chainLen++ {
		j := int(cand - mf.base)
		cand = mf.chain[j]
		// Quick reject: compare the byte one past the current best.
		if bestLen > 0 && (bestLen >= limit || data[j+bestLen] != data[i+bestLen]) {
			continue
		}
		n := matchLen(data, j, i, limit)
		if n > bestLen {
			bestLen = n
			bestDist = uint32(i - j)
			if bestLen >= niceLen {
				break
			}
		}
	}
	if bestLen < minMatch {
		return 0, 0
	}
	// A length-2 match only pays off when the distance is tiny.
	if bestLen == minMatch && bestDist > 512 {
		return 0, 0
	}
	return bestLen, bestDist
}
