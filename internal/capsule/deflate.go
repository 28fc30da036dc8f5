package capsule

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// inflater is DEFLATE reader state: one flate reader, Reset per chunk onto
// a reused bytes.Reader, so a decode allocates only its output. A Box owns
// one for its capsules, a dirDecoder one for directories.
type inflater struct {
	src   bytes.Reader
	fr    io.ReadCloser
	extra [1]byte // the read that must find EOF
}

// errDeflateLength rejects a chunk whose stream and declared length
// disagree: longer, shorter, not final, or trailed by extra bytes.
var errDeflateLength = errors.New("deflate stream does not end at its declared length")

// decode inflates one DEFLATE chunk into a buffer of exactly its declared
// length. A length above limit or the format's expansion ceiling is
// rejected before anything is allocated, and the stream must end right
// there, so a forged chunk can never allocate or emit more than the
// directory promises.
func (z *inflater) decode(chunk []byte, limit uint64) ([]byte, error) {
	return z.decodeInto(nil, chunk, limit)
}

// decodeInto is decode into buf when its capacity holds the declared
// length; the result aliases buf then.
func (z *inflater) decodeInto(buf, chunk []byte, limit uint64) ([]byte, error) {
	rawLen, n := binary.Uvarint(chunk)
	if n <= 0 {
		return nil, errors.New("bad deflate length")
	}
	if ceiling := 64 + uint64(len(chunk))*maxDeflateExpansion; rawLen > limit || rawLen > ceiling {
		return nil, fmt.Errorf("implausible deflate length %d (limit %d, ceiling %d)", rawLen, limit, ceiling)
	}
	z.src.Reset(chunk[n:])
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else {
		z.fr.(flate.Resetter).Reset(&z.src, nil)
	}
	out := buf
	if uint64(cap(out)) < rawLen {
		out = make([]byte, rawLen)
	}
	out = out[:rawLen]
	if _, err := io.ReadFull(z.fr, out); err != nil {
		return nil, fmt.Errorf("deflate: %v", err)
	}
	// A bytes.Reader is an io.ByteReader, so flate reads no byte past the
	// final block: EOF here and nothing left means the stream ended exactly.
	if k, err := z.fr.Read(z.extra[:]); k != 0 || err != io.EOF || z.src.Len() != 0 {
		return nil, errDeflateLength
	}
	return out, nil
}
