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
// verification tooling, internal/legacy and fault-injection tests).
type FrameInfo struct {
	// HeaderOff is the offset of the frame header.
	HeaderOff int
	// PayloadOff is the offset of the CapsuleBox payload.
	PayloadOff int
	// PayloadLen is the payload length in bytes.
	PayloadLen int
	// Lines is the number of log lines the frame's block holds.
	Lines int
	// Terminator marks the archive's final frame.
	Terminator bool

	payloadCRC uint32 // as the header records it; ScanFrames does not check it
}

// PayloadIntact reports whether payload, the frame's payload in its
// archive, matches the CRC32C its header records.
func (f *FrameInfo) PayloadIntact(payload []byte) bool {
	return crc32.Checksum(payload, castagnoli) == f.payloadCRC
}

// ScanFrames structurally parses a v2 archive and returns the location of
// every frame, terminator included. It fails on the first structural fault
// the walk finds — it is a layout scan for tooling and tests, not the
// quarantining reader (use Open for that). A v1 archive is ErrOldFormat.
func ScanFrames(data []byte) ([]FrameInfo, error) {
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	w := walkV2(data)
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
			payloadCRC: f.payloadCRC,
		}
	}
	return out, nil
}

var errBadMagic = fmt.Errorf("%w: bad magic", ErrCorrupt)

// errV1 refuses the checksum-free v1 frame format ("LGRPARC1"), which only
// retired writers wrote; internal/legacy reads it.
var errV1 = fmt.Errorf("archive: v1 archive: %w", ErrOldFormat)

// checkMagic accepts a v2 archive's magic: a v1 archive is errV1, anything
// else errBadMagic.
func checkMagic(data []byte) error {
	switch {
	case hasMagic(data, Magic):
		return nil
	case hasMagic(data, "LGRPARC1"):
		return errV1
	}
	return errBadMagic
}

// frame is one frame a walk found: where it sits and what its header says.
type frame struct {
	frameHeader
	off        int // offset of the header
	payloadOff int
}

// walk is an archive's frame structure as far as its format's walk could
// read it.
type walk struct {
	// frames are the frames found, in stream order, every payload inside
	// the data; the terminator, when one was found, is last.
	frames []frame
	// causes are the structural faults found, in stream order.
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

// hasMagic reports whether data starts with the given magic string.
func hasMagic(data []byte, magic string) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == magic
}
