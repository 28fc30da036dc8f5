// The level-9 encoder below is ported from Go 1.24's compress/flate
// (deflate.go, huffman_bit_writer.go, huffman_code.go, token.go), under
// this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package capsule

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Codec names the coder of one CapsuleBox section: a capsule's chunks (all
// chunks of a capsule share its codec) or the directory. A box records one
// codec byte per capsule directory entry and one ahead of the directory,
// and DEFLATE is the one codec a box holds. Byte 0 named LZMA-lite, which
// only retired boxes hold (internal/legacy reads them).
type Codec uint8

// CodecDeflate is level-9 DEFLATE, as compress/flate writes it: a chunk is
// uvarint rawLen followed by one raw DEFLATE stream (RFC 1951) that ends
// exactly after rawLen bytes.
const CodecDeflate Codec = 1

// String returns the codec name.
func (c Codec) String() string {
	if c == CodecDeflate {
		return "deflate"
	}
	return "unknown"
}

// maxDeflateExpansion is DEFLATE's output-to-input ceiling: the longest
// match, 258 bytes, costs at least two bits, so no stream emits more than
// 1032 bytes per input byte. A declared length beyond it is forged.
const maxDeflateExpansion = 1032

// A whole-buffer level-9 DEFLATE encoder, the write-side twin of
// inflate.go. Its streams are byte-identical to compress/flate's
// NewWriter(w, BestCompression), Write(src), Close(): the same lazy-match
// loop, window slide, block cuts and stored/fixed/dynamic choice, down to
// the empty final stored block. FuzzDeflateMatchesStdlib holds the two to
// that. What differs is the work around the bytes:
//
//   - the hash tables are not cleared between streams: each stream starts
//     its positions past every value the tables hold, so a stale entry
//     reads as out of the window, as a cleared one does;
//   - the window is the input itself, resliced where stdlib slides a copy;
//   - matchLen compares 8 bytes at a time;
//   - output is appended to a slice, and encoders are pooled.
//
// Only what level 9 reaches is ported: no fast or Huffman-only modes, no
// dictionaries, no flushes.

const (
	logWindowSize = 15
	windowSize    = 1 << logWindowSize
	windowMask    = windowSize - 1

	baseMatchLength = 3   // the smallest match length per RFC 1951 3.2.5
	minMatchLength  = 4   // the smallest match length the encoder emits
	maxMatchLength  = 258 // the largest match length
	baseMatchOffset = 1   // the smallest match offset

	// maxFlateBlockTokens caps a block's tokens.
	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17
	hashSize            = 1 << hashBits
	hashMask            = hashSize - 1
	// maxHashOffset is where compress/flate rebases its hash values.
	maxHashOffset = 1 << 24

	// Level 9's search parameters.
	goodLength = 32   // at this match length, look at a quarter of the chain
	lazyLength = 258  // no lazy search past a match this long
	niceLength = 258  // stop searching at a match this long
	maxChain   = 4096 // chain positions tried per search

	hashmul = 0x1e35a7bd
)

// deflater is one level-9 encoder: hash chains, the stream's state and
// the Huffman writer, 733 KB in one allocation. It codes one stream at a
// time and is reused across streams from deflaters.
type deflater struct {
	// hashHead[h] is the latest position+hashOffset with hash h;
	// hashPrev[p&windowMask] the one before position p on its chain. A
	// value v stands for window position v-hashOffset, and a negative one
	// is out of the window.
	hashHead   [hashSize]uint32
	hashPrev   [windowSize]uint32
	hashOffset int
	chainHead  int

	// The input not yet slid out is window = src[base:base+windowEnd];
	// window[index:] is unprocessed.
	window         []byte
	index          int
	windowEnd      int
	blockStart     int  // window index where the current tokens start
	byteAvailable  bool // window[index-1] is still to be coded
	length         int
	offset         int
	maxInsertIndex int
	tokens         []token
	tokenBuf       [maxFlateBlockTokens + 1]token

	w   huffWriter
	buf []byte // chunk's result
	dir []byte // WriteBox's directory, before it is coded
}

// deflaters recycles encoders for WriteBox and every other writer of
// DEFLATE chunks: an encoder's tables are most of a small box's cost to
// allocate.
var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// chunk codes raw as one DEFLATE chunk, uvarint rawLen then the stream. The
// result lives in z's buffer until the next call.
func (z *deflater) chunk(raw []byte) []byte {
	z.buf = z.appendStream(binary.AppendUvarint(z.buf[:0], uint64(len(raw))), raw)
	return z.buf
}

// appendStream appends src's level-9 DEFLATE stream to dst.
func (d *deflater) appendStream(dst, src []byte) []byte {
	d.begin()
	d.w.out = dst
	base := 0
	// compress/flate's Write: code what the window holds, then slide and
	// fill it, until all of src is in.
	for base+d.windowEnd < len(src) {
		d.deflate(false)
		base = d.fill(src, base)
	}
	// Close: code the rest, then the empty final stored block.
	d.deflate(true)
	d.w.writeStoredHeader(0, true)
	d.w.flush()
	out := d.w.out
	d.w.out = nil
	return out
}

// begin starts a stream. Every value the tables hold is below
// hashOffset+windowEnd, so a stream that starts its hashOffset there finds
// them all out of the window, as compress/flate's Reset does by clearing
// ≈ 640 KB of them. They are cleared only when the offset would pass
// maxHashOffset, once every 16 MiB of input.
func (d *deflater) begin() {
	off := d.hashOffset + d.windowEnd
	switch {
	case off == 0: // a new encoder: the tables are zero, as after a clear
		off = 1
	case off > maxHashOffset:
		clear(d.hashHead[:])
		clear(d.hashPrev[:])
		off = 1
	}
	d.hashOffset = off
	d.chainHead = -1
	d.window = nil
	d.index, d.windowEnd = 0, 0
	d.blockStart, d.byteAvailable = 0, false
	d.tokens = d.tokenBuf[:0]
	d.length = minMatchLength - 1
	d.offset = 0
	d.maxInsertIndex = 0
}

// fill slides the window by windowSize once the coder is near its end,
// then extends it over as much of src as fits in 2×windowSize, returning
// the window's new base in src.
func (d *deflater) fill(src []byte, base int) int {
	if d.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		base += windowSize
		d.index -= windowSize
		d.windowEnd -= windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
		d.hashOffset += windowSize
		if d.hashOffset > maxHashOffset {
			d.rebase()
		}
	}
	d.windowEnd = min(2*windowSize, len(src)-base)
	d.window = src[base : base+d.windowEnd]
	return base
}

// rebase moves hashOffset back to 1 and every value in the window with
// it; the rest become 0, which is out of the window too. It ranges over
// slices: ranging over the arrays would copy them onto the stack.
func (d *deflater) rebase() {
	delta := d.hashOffset - 1
	d.hashOffset -= delta
	d.chainHead -= delta
	for i, v := range d.hashPrev[:] {
		if int(v) > delta {
			d.hashPrev[i] = uint32(int(v) - delta)
		} else {
			d.hashPrev[i] = 0
		}
	}
	for i, v := range d.hashHead[:] {
		if int(v) > delta {
			d.hashHead[i] = uint32(int(v) - delta)
		} else {
			d.hashHead[i] = 0
		}
	}
}

// writeBlock codes the tokens of window[blockStart:index] as one block. A
// block that began before a slide has no input to store.
func (d *deflater) writeBlock(tokens []token, index int) {
	if index > 0 {
		var window []byte
		if d.blockStart <= index {
			window = d.window[d.blockStart:index]
		}
		d.blockStart = index
		d.w.writeBlock(tokens, window)
	}
}

// findMatch looks for a match at pos longer than prevLength along the
// chain from prevHead, trying at most maxChain positions.
func (d *deflater) findMatch(pos int, prevHead int, prevLength int, lookahead int) (length, offset int, ok bool) {
	minMatchLook := min(maxMatchLength, lookahead)
	win := d.window[0 : pos+minMatchLook]

	// Stop at a match that's at least nice long.
	nice := min(len(win)-pos, niceLength)

	// With a good match already, look at a quarter of the chain.
	tries := maxChain
	length = prevLength
	if length >= goodLength {
		tries >>= 2
	}

	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize

	for i := prevHead; tries > 0; tries-- {
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)
			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length = n
				offset = pos - i
				ok = true
				if n >= nice {
					break
				}
				wEnd = win[pos+n]
			}
		}
		if i == minIndex {
			// hashPrev[i&windowMask] has already been overwritten.
			break
		}
		i = int(d.hashPrev[i&windowMask]) - d.hashOffset
		if i < minIndex || i < 0 {
			break
		}
	}
	return
}

// hash4 hashes the first 4 bytes of b.
func hash4(b []byte) uint32 {
	return (binary.BigEndian.Uint32(b) * hashmul) >> (32 - hashBits)
}

// matchLen returns the number of leading bytes a and b share, up to
// limit; both hold at least limit bytes. It compares 8 bytes at a time.
func matchLen(a, b []byte, limit int) int {
	a, b = a[:limit], b[:limit]
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < limit; n++ {
		if a[n] != b[n] {
			return n
		}
	}
	return limit
}

// insert puts position index on its hash chain.
func (d *deflater) insert(index int) {
	hh := &d.hashHead[hash4(d.window[index:index+minMatchLength])&hashMask]
	d.hashPrev[index&windowMask] = *hh
	*hh = uint32(index + d.hashOffset)
}

// deflate runs the lazy-match loop over the window. Unless flushing, it
// stops while a full match of lookahead is left, for fill to extend.
func (d *deflater) deflate(flush bool) {
	if d.windowEnd-d.index < minMatchLength+maxMatchLength && !flush {
		return
	}

	d.maxInsertIndex = d.windowEnd - (minMatchLength - 1)

	for {
		lookahead := d.windowEnd - d.index
		if lookahead < minMatchLength+maxMatchLength {
			if !flush {
				return
			}
			if lookahead == 0 {
				// Flush the pending literal and the block.
				if d.byteAvailable {
					d.tokens = append(d.tokens, literalToken(uint32(d.window[d.index-1])))
					d.byteAvailable = false
				}
				if len(d.tokens) > 0 {
					d.writeBlock(d.tokens, d.index)
					d.tokens = d.tokens[:0]
				}
				return
			}
		}
		if d.index < d.maxInsertIndex {
			hh := &d.hashHead[hash4(d.window[d.index:d.index+minMatchLength])&hashMask]
			d.chainHead = int(*hh)
			d.hashPrev[d.index&windowMask] = uint32(d.chainHead)
			*hh = uint32(d.index + d.hashOffset)
		}
		prevLength := d.length
		prevOffset := d.offset
		d.length = minMatchLength - 1
		d.offset = 0
		minIndex := max(d.index-windowSize, 0)

		if d.chainHead-d.hashOffset >= minIndex && lookahead > prevLength && prevLength < lazyLength {
			if newLength, newOffset, ok := d.findMatch(d.index, d.chainHead-d.hashOffset, minMatchLength-1, lookahead); ok {
				d.length = newLength
				d.offset = newOffset
			}
		}
		if prevLength >= minMatchLength && d.length <= prevLength {
			// The previous position's match is at least as long: emit it,
			// and insert every position it covers up to its end. index and
			// index-1 are inserted already; without enough lookahead the
			// last two are not.
			d.tokens = append(d.tokens, matchToken(uint32(prevLength-baseMatchLength), uint32(prevOffset-baseMatchOffset)))
			newIndex := d.index + prevLength - 1
			index := d.index
			for index++; index < newIndex; index++ {
				if index < d.maxInsertIndex {
					d.insert(index)
				}
			}
			d.index = index
			d.byteAvailable = false
			d.length = minMatchLength - 1
			if len(d.tokens) == maxFlateBlockTokens {
				// The block includes the current byte.
				d.writeBlock(d.tokens, d.index)
				d.tokens = d.tokens[:0]
			}
		} else {
			if d.byteAvailable {
				i := d.index - 1
				d.tokens = append(d.tokens, literalToken(uint32(d.window[i])))
				if len(d.tokens) == maxFlateBlockTokens {
					d.writeBlock(d.tokens, i+1)
					d.tokens = d.tokens[:0]
				}
			}
			d.index++
			d.byteAvailable = true
		}
	}
}

// Tokens: 2 bits of type, 8 of length - 3, 22 of offset - 1 or a literal.
type token uint32

const (
	lengthShift = 22
	offsetMask  = 1<<lengthShift - 1
	literalType = 0 << 30
	matchType   = 1 << 30
)

func literalToken(literal uint32) token { return token(literalType + literal) }

func matchToken(xlength uint32, xoffset uint32) token {
	return token(matchType + xlength<<lengthShift + xoffset)
}

func (t token) literal() uint32 { return uint32(t - literalType) }
func (t token) offset() uint32  { return uint32(t) & offsetMask }
func (t token) length() uint32  { return uint32((t - matchType) >> lengthShift) }

const (
	offsetCodeCount  = 30  // distance codes
	endBlockMarker   = 256 // end-of-block symbol
	lengthCodesStart = 257 // the first length code
	codegenCodeCount = 19  // code-length codes
	badCode          = 255 // ends a codegen sequence
)

// Each length and offset code's extra bits and base value.
var (
	lengthExtraBits = [29]int8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	lengthBase = [29]uint32{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 10,
		12, 14, 16, 20, 24, 28, 32, 40, 48, 56,
		64, 80, 96, 112, 128, 160, 192, 224, 255,
	}
	offsetExtraBits = [offsetCodeCount]int8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
		4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
		9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
	offsetBase = [offsetCodeCount]uint32{
		0x000000, 0x000001, 0x000002, 0x000003, 0x000004,
		0x000006, 0x000008, 0x00000c, 0x000010, 0x000018,
		0x000020, 0x000030, 0x000040, 0x000060, 0x000080,
		0x0000c0, 0x000100, 0x000180, 0x000200, 0x000300,
		0x000400, 0x000600, 0x000800, 0x000c00, 0x001000,
		0x001800, 0x002000, 0x003000, 0x004000, 0x006000,
	}
)

// lengthCodes maps length - 3 to its length code; offsetCodes maps an
// offset - 1 below 256 to its offset code, and offsetCode the rest.
var lengthCodes, offsetCodes [256]uint8

// The fixed block's codes.
var fixedLiteralEncoding, fixedOffsetEncoding huffmanEncoder

func init() {
	for c := range lengthBase {
		for x := lengthBase[c]; x < min(256, lengthBase[c]+1<<lengthExtraBits[c]); x++ {
			lengthCodes[x] = uint8(c)
		}
	}
	for c := range 16 {
		for x := offsetBase[c]; x < offsetBase[c]+1<<offsetExtraBits[c]; x++ {
			offsetCodes[x] = uint8(c)
		}
	}
	for ch := range uint16(maxLitSyms) {
		var code, size uint16
		switch {
		case ch < 144:
			code, size = ch+48, 8
		case ch < 256:
			code, size = ch+400-144, 9
		case ch < 280:
			code, size = ch-256, 7
		default:
			code, size = ch+192-280, 8
		}
		fixedLiteralEncoding.codes[ch] = hcode{code: reverseBits(code, byte(size)), len: size}
	}
	for ch := range uint16(offsetCodeCount) {
		fixedOffsetEncoding.codes[ch] = hcode{code: reverseBits(ch, 5), len: 5}
	}
}

func lengthCode(len uint32) uint32 { return uint32(lengthCodes[len]) }

func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off])
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off>>7]) + 14
	}
	return uint32(offsetCodes[off>>14]) + 28
}

// huffWriter writes blocks of tokens as compress/flate's huffmanBitWriter
// does, appending to out.
type huffWriter struct {
	out   []byte
	bits  uint64 // pending bits, the low nbits of them
	nbits uint

	literalFreq     [maxLitSyms]int32
	offsetFreq      [offsetCodeCount]int32
	codegenFreq     [codegenCodeCount]int32
	codegen         [maxLitSyms + offsetCodeCount + 1]uint8
	literalEncoding huffmanEncoder
	offsetEncoding  huffmanEncoder
	codegenEncoding huffmanEncoder
}

// put appends the low 48 pending bits once there are that many.
func (w *huffWriter) put() {
	if w.nbits >= 48 {
		n := len(w.out)
		w.out = binary.LittleEndian.AppendUint64(w.out, w.bits)[:n+6]
		w.bits >>= 48
		w.nbits -= 48
	}
}

func (w *huffWriter) writeBits(b int32, nb uint) {
	w.bits |= uint64(b) << w.nbits
	w.nbits += nb
	w.put()
}

func (w *huffWriter) writeCode(c hcode) {
	w.bits |= uint64(c.code) << w.nbits
	w.nbits += uint(c.len)
	w.put()
}

// flush writes the pending bits, the last byte padded with zeros.
func (w *huffWriter) flush() {
	for w.nbits != 0 {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
		w.nbits -= min(w.nbits, 8)
	}
	w.bits = 0
}

// writeBytes writes b after the pending bits, which are whole bytes: they
// follow a stored block's header.
func (w *huffWriter) writeBytes(b []byte) {
	w.flush()
	w.out = append(w.out, b...)
}

// generateCodegen run-length codes the literal and offset code lengths
// (RFC 1951 3.2.7) into codegen, ended by badCode, and counts each code
// in codegenFreq. Codes 16-18 are followed by their repeat count.
func (w *huffWriter) generateCodegen(numLiterals int, numOffsets int, litEnc, offEnc *huffmanEncoder) {
	clear(w.codegenFreq[:])
	// codegen holds the lengths first, then the result: the output never
	// overtakes the input.
	codegen := w.codegen[:]
	for i := range numLiterals {
		codegen[i] = uint8(litEnc.codes[i].len)
	}
	for i := range numOffsets {
		codegen[numLiterals+i] = uint8(offEnc.codes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size are still to be coded.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				codegen[outIndex+1] = uint8(n - 3)
				outIndex += 2
				w.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				codegen[outIndex+1] = uint8(n - 11)
				outIndex += 2
				w.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex] = 17
				codegen[outIndex+1] = uint8(count - 3)
				outIndex += 2
				w.codegenFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			codegen[outIndex] = size
			outIndex++
			w.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// dynamicSize returns a dynamic block's size in bits and the code-length
// codes its header lists.
func (w *huffWriter) dynamicSize(litEnc, offEnc *huffmanEncoder, extraBits int) (size, numCodegens int) {
	numCodegens = len(w.codegenFreq)
	for numCodegens > 4 && w.codegenFreq[clenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		w.codegenEncoding.bitLength(w.codegenFreq[:]) +
		int(w.codegenFreq[16])*2 +
		int(w.codegenFreq[17])*3 +
		int(w.codegenFreq[18])*7
	size = header +
		litEnc.bitLength(w.literalFreq[:]) +
		offEnc.bitLength(w.offsetFreq[:]) +
		extraBits
	return size, numCodegens
}

// fixedSize returns a fixed block's size in bits.
func (w *huffWriter) fixedSize(extraBits int) int {
	return 3 +
		fixedLiteralEncoding.bitLength(w.literalFreq[:]) +
		fixedOffsetEncoding.bitLength(w.offsetFreq[:]) +
		extraBits
}

// storedSize returns a stored block's size in bits, header included, and
// whether in fits one.
func (w *huffWriter) storedSize(in []byte) (int, bool) {
	if in == nil || len(in) > maxStoreBlockSize {
		return 0, false
	}
	return (len(in) + 5) * 8, true
}

// writeDynamicHeader writes the header of a dynamic block, never the
// final one.
func (w *huffWriter) writeDynamicHeader(numLiterals int, numOffsets int, numCodegens int) {
	w.writeBits(4, 3)
	w.writeBits(int32(numLiterals-257), 5)
	w.writeBits(int32(numOffsets-1), 5)
	w.writeBits(int32(numCodegens-4), 4)

	for i := range numCodegens {
		w.writeBits(int32(w.codegenEncoding.codes[clenOrder[i]].len), 3)
	}

	for i := 0; ; {
		codeWord := w.codegen[i]
		i++
		if codeWord == badCode {
			break
		}
		w.writeCode(w.codegenEncoding.codes[codeWord])
		switch codeWord {
		case 16:
			w.writeBits(int32(w.codegen[i]), 2)
			i++
		case 17:
			w.writeBits(int32(w.codegen[i]), 3)
			i++
		case 18:
			w.writeBits(int32(w.codegen[i]), 7)
			i++
		}
	}
}

func (w *huffWriter) writeStoredHeader(length int, isEOF bool) {
	var flag int32
	if isEOF {
		flag = 1
	}
	w.writeBits(flag, 3)
	w.flush()
	w.writeBits(int32(length), 16)
	w.writeBits(int32(^uint16(length)), 16)
}

// writeFixedHeader writes the header of a fixed block, never the final
// one.
func (w *huffWriter) writeFixedHeader() {
	w.writeBits(2, 3)
}

// writeBlock writes tokens as the smallest of a fixed, a dynamic and,
// when input is given and fits, a stored block; the stream's final block
// is the empty stored one after them.
func (w *huffWriter) writeBlock(tokens []token, input []byte) {
	tokens = append(tokens, endBlockMarker)
	numLiterals, numOffsets := w.indexTokens(tokens)

	var extraBits int
	storedSize, storable := w.storedSize(input)
	if storable {
		// The extra bits of lengths and offsets cost fixed and dynamic
		// blocks alike; they count only against a stored block.
		for lengthCode := lengthCodesStart + 8; lengthCode < numLiterals; lengthCode++ {
			extraBits += int(w.literalFreq[lengthCode]) * int(lengthExtraBits[lengthCode-lengthCodesStart])
		}
		for offsetCode := 4; offsetCode < numOffsets; offsetCode++ {
			extraBits += int(w.offsetFreq[offsetCode]) * int(offsetExtraBits[offsetCode])
		}
	}

	literalEncoding, offsetEncoding := &fixedLiteralEncoding, &fixedOffsetEncoding
	size := w.fixedSize(extraBits)

	w.generateCodegen(numLiterals, numOffsets, &w.literalEncoding, &w.offsetEncoding)
	w.codegenEncoding.generate(w.codegenFreq[:], 7)
	dynamicSize, numCodegens := w.dynamicSize(&w.literalEncoding, &w.offsetEncoding, extraBits)
	if dynamicSize < size {
		size = dynamicSize
		literalEncoding, offsetEncoding = &w.literalEncoding, &w.offsetEncoding
	}

	if storable && storedSize < size {
		w.writeStoredHeader(len(input), false)
		w.writeBytes(input)
		return
	}

	if literalEncoding == &fixedLiteralEncoding {
		w.writeFixedHeader()
	} else {
		w.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	}
	w.writeTokens(tokens, literalEncoding.codes[:], offsetEncoding.codes[:])
}

// indexTokens counts the tokens' symbols, builds their codes and returns
// how many literal/length and offset codes the block's header lists.
func (w *huffWriter) indexTokens(tokens []token) (numLiterals, numOffsets int) {
	clear(w.literalFreq[:])
	clear(w.offsetFreq[:])

	for _, t := range tokens {
		if t < matchType {
			w.literalFreq[t.literal()]++
			continue
		}
		w.literalFreq[lengthCodesStart+lengthCode(t.length())]++
		w.offsetFreq[offsetCode(t.offset())]++
	}

	numLiterals = len(w.literalFreq)
	for w.literalFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = len(w.offsetFreq)
	for numOffsets > 0 && w.offsetFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// No match: a dynamic header still needs one offset code.
		w.offsetFreq[0] = 1
		numOffsets = 1
	}
	w.literalEncoding.generate(w.literalFreq[:], 15)
	w.offsetEncoding.generate(w.offsetFreq[:], 15)
	return
}

// writeTokens writes tokens with the given codes.
func (w *huffWriter) writeTokens(tokens []token, leCodes, oeCodes []hcode) {
	for _, t := range tokens {
		if t < matchType {
			w.writeCode(leCodes[t.literal()])
			continue
		}
		length := t.length()
		lengthCode := lengthCode(length)
		w.writeCode(leCodes[lengthCode+lengthCodesStart])
		if extra := uint(lengthExtraBits[lengthCode]); extra > 0 {
			w.writeBits(int32(length-lengthBase[lengthCode]), extra)
		}
		offset := t.offset()
		offsetCode := offsetCode(offset)
		w.writeCode(oeCodes[offsetCode])
		if extra := uint(offsetExtraBits[offsetCode]); extra > 0 {
			w.writeBits(int32(offset-offsetBase[offsetCode]), extra)
		}
	}
}

// hcode is a Huffman code, bit-reversed for LSB-first output, and its
// length.
type hcode struct {
	code, len uint16
}

// huffmanEncoder builds length-limited Huffman codes for up to maxLitSyms
// symbols.
type huffmanEncoder struct {
	codes     [maxLitSyms]hcode
	freqcache [maxLitSyms + 1]literalNode
	bitCount  [17]int32
}

type literalNode struct {
	literal uint16
	freq    int32
}

// levelInfo describes the state of the constructed tree at one depth.
type levelInfo struct {
	level        int32
	lastFreq     int32 // the frequency of the last node at this level
	nextCharFreq int32 // the frequency of the next leaf to add
	nextPairFreq int32 // the frequency of the next pair from the level below
	needed       int32 // chains still to generate at this level
}

func maxNode() literalNode { return literalNode{math.MaxUint16, math.MaxInt32} }

// bitLength returns the bits freq's symbols take in h's codes.
func (h *huffmanEncoder) bitLength(freq []int32) int {
	var total int
	for i, f := range freq {
		if f != 0 {
			total += int(f) * int(h.codes[i].len)
		}
	}
	return total
}

const maxBitsLimit = 16

// bitCounts returns how many of list's literals get each code length, at
// most maxBits, by the package-merge algorithm. list holds at least 3
// literals, ordered by increasing frequency, with room for one more.
func (h *huffmanEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = maxNode()

	// The tree is no deeper than n-1.
	maxBits = min(maxBits, n-1)

	// Level 0 is a sentinel whose needed stays 0, so that level 1's
	// nextPairFreq is never chosen. leafCounts[i][j] counts the literals
	// left of the level-j ancestor of level i's rightmost node.
	var levels [maxBitsLimit]levelInfo
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// Each level starts with the first two leaves.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// The top level needs 2n-2 items and has 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: this level is done, and no level
			// at or below it is visited again.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item is a leaf.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// The next item is a pair from the level below, which must
			// make two more.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// This level is done: its last two items are the next
			// level's pair.
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// Replenish the levels below that were drawn from.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	if leafCounts[maxBits][maxBits] != n {
		panic("deflate: leafCounts[maxBits][maxBits] != n")
	}

	bitCount := h.bitCount[:maxBits+1]
	bits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		// counts[level] literals need at least bits bits.
		bitCount[bits] = counts[level] - counts[level-1]
		bits++
	}
	return bitCount
}

// assignEncodingAndSize gives list's literals their codes (RFC 1951
// 3.2.2): the least frequent take the longest, and within a length codes
// ascend with the literal.
func (h *huffmanEncoder) assignEncodingAndSize(bitCount []int32, list []literalNode) {
	code := uint16(0)
	for n, bits := range bitCount {
		code <<= 1
		if n == 0 || bits == 0 {
			continue
		}
		chunk := list[len(list)-int(bits):]
		slices.SortFunc(chunk, func(a, b literalNode) int { return cmp.Compare(a.literal, b.literal) })
		for _, node := range chunk {
			h.codes[node.literal] = hcode{code: reverseBits(code, uint8(n)), len: uint16(n)}
			code++
		}
		list = list[0 : len(list)-int(bits)]
	}
}

// generate sets h's codes to the minimum code for freq with no code longer
// than maxBits. Both sorts are by total orders, so any sort gives
// compress/flate's codes.
func (h *huffmanEncoder) generate(freq []int32, maxBits int32) {
	list := h.freqcache[:len(freq)+1]
	count := 0
	for i, f := range freq {
		if f != 0 {
			list[count] = literalNode{uint16(i), f}
			count++
		} else {
			h.codes[i].len = 0
		}
	}

	list = list[:count]
	if count <= 2 {
		// With two or fewer literals, every code is 1 bit, in literal
		// order.
		for i, node := range list {
			h.codes[node.literal] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	slices.SortFunc(list, func(a, b literalNode) int {
		if a.freq != b.freq {
			return cmp.Compare(a.freq, b.freq)
		}
		return cmp.Compare(a.literal, b.literal)
	})

	h.assignEncodingAndSize(h.bitCounts(list, maxBits), list)
}

func reverseBits(number uint16, bitLength byte) uint16 {
	return bits.Reverse16(number << (16 - bitLength))
}
