package capsule

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
)

// Codec names the coder of one CapsuleBox section: a capsule's chunks (all
// chunks of a capsule share its codec) or the directory. A rev-3 box
// records one codec byte per capsule directory entry and one ahead of the
// directory; every section of a rev-1 or rev-2 box is LZMA-lite.
type Codec uint8

const (
	// CodecLZMA is LZMA-lite (internal/lzma): a chunk is its self-framed
	// "LZL1" stream.
	CodecLZMA Codec = iota
	// CodecDeflate is stdlib DEFLATE: a chunk is uvarint rawLen followed by
	// one raw DEFLATE stream (RFC 1951) that ends exactly after rawLen bytes.
	CodecDeflate
)

// String returns the codec name.
func (c Codec) String() string {
	switch c {
	case CodecLZMA:
		return "lzma"
	case CodecDeflate:
		return "deflate"
	}
	return "unknown"
}

// maxDeflateExpansion is DEFLATE's output-to-input ceiling: the longest
// match, 258 bytes, costs at least two bits, so no stream emits more than
// 1032 bytes per input byte. A declared length beyond it is forged.
const maxDeflateExpansion = 1032

// deflater is the writer's DEFLATE state for one WriteBox call: one
// level-9 flate.Writer, Reset per chunk, and the buffer it writes into.
type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// chunk codes raw as one DEFLATE chunk, uvarint rawLen then the stream. The
// result lives in z's buffer until the next call.
func (z *deflater) chunk(raw []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	z.buf.Reset()
	z.buf.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(raw)))])
	if z.fw == nil {
		z.fw, _ = flate.NewWriter(&z.buf, flate.BestCompression) // the level is valid
	} else {
		z.fw.Reset(&z.buf)
	}
	// Writes to a bytes.Buffer cannot fail.
	z.fw.Write(raw)
	z.fw.Close()
	return z.buf.Bytes()
}
