package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"loggrep/internal/rtpattern"
)

// Frame format v2 ("LGRPARC2"). Every block is a frame: a fixed-size
// header followed by the CapsuleBox payload. Header and payload carry
// separate CRC32C checksums so damage is localized — a flipped bit in one
// payload quarantines that block only, and a damaged header is skipped by
// re-synchronizing on the next header whose checksum verifies.
//
//	offset size field
//	0      4    uint32 LE  boxLen      (0 marks the terminator frame)
//	4      4    uint32 LE  numLines    lines in the block
//	8      4    uint32 LE  rawBytes    raw size the block was built from
//	12     8    uint64 LE  lineOff     global line number of the first line
//	20     1    uint8      stamp type mask
//	21     4    uint32 LE  stamp max line length
//	25     4    uint32 LE  payload CRC32C (0 for the terminator)
//	29     4    uint32 LE  header CRC32C over bytes [0,29)
//
// The header stores the ABSOLUTE line offset rather than relying on
// cumulative sums, so a reader that loses a frame to corruption can
// re-synchronize and still report the surviving blocks' lines under the
// same global numbering as a pristine archive. The terminator frame
// (boxLen 0) records the archive's total line count in lineOff, making
// truncation detectable even at a frame boundary.

// headerSize is the fixed v2 frame header size in bytes.
const headerSize = 33

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is a decoded v2 frame header.
type frameHeader struct {
	boxLen     int
	meta       blockMeta
	lineOff    int
	payloadCRC uint32
}

// terminator reports whether the header marks the end of the archive.
func (h *frameHeader) terminator() bool { return h.boxLen == 0 }

// encodeHeader serializes a v2 frame header, computing both checksums.
func encodeHeader(meta blockMeta, lineOff int, payload []byte) []byte {
	var h [headerSize]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], uint32(meta.numLines))
	binary.LittleEndian.PutUint32(h[8:], uint32(meta.rawBytes))
	binary.LittleEndian.PutUint64(h[12:], uint64(lineOff))
	h[20] = meta.stamp.TypeMask
	binary.LittleEndian.PutUint32(h[21:], uint32(meta.stamp.MaxLen))
	if len(payload) > 0 {
		binary.LittleEndian.PutUint32(h[25:], crc32.Checksum(payload, castagnoli))
	}
	binary.LittleEndian.PutUint32(h[29:], crc32.Checksum(h[:29], castagnoli))
	return h[:]
}

// decodeHeader parses a candidate v2 frame header and verifies its
// checksum. ok is false when the checksum does not match.
func decodeHeader(b []byte) (h frameHeader, ok bool) {
	if len(b) < headerSize {
		return h, false
	}
	if crc32.Checksum(b[:29], castagnoli) != binary.LittleEndian.Uint32(b[29:33]) {
		return h, false
	}
	h.boxLen = int(binary.LittleEndian.Uint32(b[0:]))
	h.meta.numLines = int(binary.LittleEndian.Uint32(b[4:]))
	h.meta.rawBytes = int(binary.LittleEndian.Uint32(b[8:]))
	h.lineOff = int(binary.LittleEndian.Uint64(b[12:]))
	h.meta.stamp = rtpattern.Stamp{TypeMask: b[20], MaxLen: int(binary.LittleEndian.Uint32(b[21:]))}
	h.payloadCRC = binary.LittleEndian.Uint32(b[25:29])
	return h, true
}

// FrameInfo locates one frame inside an archive buffer (diagnostics,
// verification tooling and fault-injection tests).
type FrameInfo struct {
	// HeaderOff is the offset of the frame header (v2) or of the frame's
	// leading length varint (v1).
	HeaderOff int
	// PayloadOff is the offset of the CapsuleBox payload.
	PayloadOff int
	// PayloadLen is the payload length in bytes.
	PayloadLen int
	// Lines is the number of log lines the frame's block holds.
	Lines int
	// Terminator marks the archive's final frame.
	Terminator bool
}

// ScanFrames structurally parses an archive and returns the location of
// every frame, terminator included. It fails on the first structural fault
// the format's walk finds — it is a layout scan for tooling and tests, not
// the quarantining reader (use Open for that).
func ScanFrames(data []byte) ([]FrameInfo, error) {
	var w walk
	switch {
	case hasMagic(data, Magic):
		w = walkV2(data)
	case hasMagic(data, MagicV1):
		w = walkV1(data)
	default:
		return nil, errBadMagic
	}
	if len(w.causes) > 0 {
		return nil, w.causes[0]
	}
	out := make([]FrameInfo, len(w.frames))
	for i, f := range w.frames {
		out[i] = FrameInfo{
			HeaderOff:  f.off,
			PayloadOff: f.payloadOff,
			PayloadLen: f.boxLen,
			Lines:      f.meta.numLines,
			Terminator: f.terminator(),
		}
	}
	return out, nil
}

var errBadMagic = fmt.Errorf("%w: bad magic", ErrCorrupt)

// frame is one frame a walk found: where it sits and what its v2 header,
// or v1 length and trailer, says. A v1 frame has no payload checksum, and
// its line offset is the sum of the frames before it.
type frame struct {
	frameHeader
	off        int // offset of the v2 header or of the v1 length varint
	payloadOff int
}

// walk is an archive's frame structure as far as its format's walk could
// read it.
type walk struct {
	// frames are the frames found, in stream order, every payload inside
	// the data; the terminator, when one was found, is last.
	frames []frame
	// causes are the structural faults found, in stream order. A v1 walk
	// stops at its first.
	causes []error
	// endLine is the line after the last frame header read, a truncated
	// frame's included.
	endLine int
}

// walkV2 walks a v2 archive's frame headers, every one checksum-verified.
// A damaged header costs the frames up to the next header resync accepts;
// a frame whose payload runs past the data, or data that ends before a
// terminator, ends the walk. Each of these is a cause.
func walkV2(data []byte) walk {
	var w walk
	pos := len(Magic)
	for {
		if len(data)-pos < headerSize {
			w.causes = append(w.causes, fmt.Errorf("%w: archive ends mid-frame at offset %d (no terminator)", ErrCorrupt, pos))
			return w
		}
		h, ok := decodeHeader(data[pos : pos+headerSize])
		if !ok {
			np, nh, found := resync(data, pos+1, w.endLine)
			if !found {
				w.causes = append(w.causes, fmt.Errorf("%w: frame header damaged at offset %d; no later frame found", ErrCorrupt, pos))
				return w
			}
			w.causes = append(w.causes, fmt.Errorf("%w: frame header damaged at offset %d; resynchronized at offset %d", ErrCorrupt, pos, np))
			pos, h = np, nh
		}
		f := frame{frameHeader: h, off: pos, payloadOff: pos + headerSize}
		if h.terminator() {
			w.frames = append(w.frames, f)
			return w
		}
		// The header survived, so a truncated frame's line extent is
		// known exactly and counts in endLine.
		w.endLine = h.lineOff + h.meta.numLines
		if h.boxLen > len(data)-f.payloadOff {
			w.causes = append(w.causes, fmt.Errorf("%w: frame payload truncated at offset %d", ErrCorrupt, pos))
			return w
		}
		w.frames = append(w.frames, f)
		pos = f.payloadOff + h.boxLen
	}
}

// resync scans forward from pos for a frame header whose checksum
// verifies and whose fields are self-consistent, so one damaged header
// costs one block, not the archive's tail. The extra field checks guard
// against the 2^-32 chance of payload bytes masquerading as a header.
func resync(data []byte, pos, expectLine int) (int, frameHeader, bool) {
	for ; pos+headerSize <= len(data); pos++ {
		h, ok := decodeHeader(data[pos : pos+headerSize])
		if !ok {
			continue
		}
		if h.terminator() {
			if h.meta.numLines == 0 && h.meta.rawBytes == 0 && h.lineOff >= expectLine {
				return pos, h, true
			}
			continue
		}
		if h.meta.numLines >= 1 && h.lineOff >= expectLine && h.boxLen <= len(data)-pos-headerSize {
			return pos, h, true
		}
	}
	return 0, frameHeader{}, false
}

// walkV1 walks the legacy checksum-free format: each frame is a length
// varint, the payload, and a trailer of numLines, rawBytes, the stamp's
// type mask byte and its max line length; a zero length is the
// terminator. With no checksum there is nothing to resynchronize on, so
// the walk stops at its first fault.
func walkV1(data []byte) walk {
	var w walk
	fail := func(what string, off int) walk {
		w.causes = append(w.causes, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, off))
		return w
	}
	pos := len(MagicV1)
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		pos += max(n, 0)
		return v, n > 0
	}
	for {
		f := frame{off: pos}
		boxLen, ok := uv()
		if !ok {
			return fail("bad frame length", f.off)
		}
		f.payloadOff = pos
		f.lineOff = w.endLine
		if boxLen == 0 {
			w.frames = append(w.frames, f)
			return w
		}
		if boxLen > uint64(len(data)-pos) {
			return fail("truncated frame", f.off)
		}
		f.boxLen = int(boxLen)
		pos += f.boxLen
		numLines, ok1 := uv()
		rawBytes, ok2 := uv()
		if !ok1 || !ok2 || pos >= len(data) {
			return fail("bad frame meta", f.off)
		}
		mask := data[pos]
		pos++
		maxLen, ok := uv()
		if !ok {
			return fail("bad frame meta", f.off)
		}
		if numLines > maxFrameLines || rawBytes > maxFrameBytes || maxLen > maxFrameBytes {
			return fail("implausible frame meta", f.off)
		}
		f.meta = blockMeta{
			numLines: int(numLines),
			rawBytes: int(rawBytes),
			stamp:    rtpattern.Stamp{TypeMask: mask, MaxLen: int(maxLen)},
		}
		w.frames = append(w.frames, f)
		w.endLine += f.meta.numLines
	}
}

// maxFrameLines/maxFrameBytes bound v1 frame metadata, which carries no
// checksum: a corrupt varint must not become a giant line count.
const (
	maxFrameLines = 1 << 40
	maxFrameBytes = 1 << 40
)

// hasMagic reports whether data starts with the given magic string.
func hasMagic(data []byte, magic string) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}
