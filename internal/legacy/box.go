package legacy

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"loggrep/internal/capsule"
	"loggrep/internal/lzma"
)

// ErrCorrupt reports a retired input that does not decode.
var ErrCorrupt = errors.New("legacy: corrupt input")

// Codec bytes of revision 3's directory and capsule entries; revisions 1
// and 2 code every section with LZMA-lite.
const (
	codecLZMA    = 0
	codecDeflate = 1
)

// upgradeBox decodes a box of a retired revision and re-packs it with
// capsule.WriteBox as a box of the current one.
func upgradeBox(data []byte) ([]byte, error) {
	var rev int
	switch {
	case bytes.HasPrefix(data, []byte("LGRPBOX1")):
		rev = 1
	case bytes.HasPrefix(data, []byte("LGRPBOX2")):
		rev = 2
	case bytes.HasPrefix(data, []byte(capsule.BoxMagic+"\x00")):
		rev = 3
	default:
		return nil, fmt.Errorf("%w: not a box of a retired revision", ErrCorrupt)
	}
	rest := data[len(capsule.BoxMagic):]
	if rev == 3 {
		rest = rest[1:] // the directory codec byte, LZMA-lite
	}
	sec, rest, err := section(rest, "directory")
	if err != nil {
		return nil, err
	}
	raw, err := lzma.DecompressLimit(sec, lzma.MaxOutput)
	if err != nil {
		return nil, fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	meta, rows, err := decodeDir(raw, rev)
	if err != nil {
		return nil, err
	}
	if rev >= 2 {
		if sec, rest, err = section(rest, "line maps"); err != nil {
			return nil, err
		}
		if err := capsule.ReadLineMaps(meta, rows, sec); err != nil {
			return nil, err
		}
	}
	nb, n := binary.Uvarint(rest)
	if n <= 0 || nb != uint64(len(meta.Capsules)) {
		return nil, fmt.Errorf("%w: capsule count mismatch", ErrCorrupt)
	}
	rest = rest[n:]
	payloads := make([][]byte, nb)
	for i := range payloads {
		c := &meta.Capsules[i]
		if payloads[i], rest, err = payload(rest, c); err != nil {
			return nil, fmt.Errorf("%w: capsule %d: %v", ErrCorrupt, i, err)
		}
		c.ChunkRows = 0 // the current box holds each capsule whole
	}
	return capsule.WriteBox(meta, payloads, 0), nil
}

// section splits a uvarint-length-prefixed section off b.
func section(b []byte, what string) (sec, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return nil, nil, fmt.Errorf("%w: bad %s length", ErrCorrupt, what)
	}
	return b[k : k+int(n)], b[k+int(n):], nil
}

// payload decodes one capsule's blob off b — uvarint numChunks; one chunk
// as uvarint length + chunk, or more as uvarint rowsPerChunk and then each
// so — and returns the capsule's whole payload: chunks back to back, a
// variable-width capsule's joined by the value delimiter.
func payload(b []byte, c *capsule.Info) (p, rest []byte, err error) {
	chunks, k := binary.Uvarint(b)
	if k <= 0 || chunks == 0 || chunks > uint64(len(b)) {
		return nil, nil, errors.New("bad chunk count")
	}
	b = b[k:]
	if chunks > 1 {
		if _, k = binary.Uvarint(b); k <= 0 {
			return nil, nil, errors.New("bad rows per chunk")
		}
		b = b[k:]
	}
	bound := payloadBound(c)
	for i := uint64(0); i < chunks; i++ {
		var chunk []byte
		if chunk, b, err = section(b, "chunk"); err != nil {
			return nil, nil, err
		}
		out, err := decode(chunk, c.Codec, bound-uint64(len(p)))
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && c.Width == 0 {
			p = append(p, '\n')
		}
		if p = append(p, out...); uint64(len(p)) > bound {
			return nil, nil, errors.New("payload overruns its bound")
		}
	}
	if c.Width > 0 && len(p) != c.Rows*c.Width {
		return nil, nil, fmt.Errorf("payload of %d bytes for %d rows of width %d", len(p), c.Rows, c.Width)
	}
	return p, b, nil
}

// payloadBound bounds the decoded size of capsule c's payload as the
// retired readers did: every value is at most max(1, MaxLen, Width) bytes
// plus one delimiter.
func payloadBound(c *capsule.Info) uint64 {
	return uint64(c.Rows) * uint64(max(1, c.Stamp.MaxLen, c.Width)+1)
}

// decode decodes one chunk in codec of at most limit bytes.
func decode(chunk []byte, codec capsule.Codec, limit uint64) ([]byte, error) {
	if codec == codecLZMA {
		return lzma.DecompressLimit(chunk, limit)
	}
	// uvarint rawLen, then a raw DEFLATE stream that ends after it.
	n, k := binary.Uvarint(chunk)
	if k <= 0 || n > limit || n > 64+1032*uint64(len(chunk)) {
		return nil, errors.New("bad DEFLATE length")
	}
	out := make([]byte, n)
	r := flate.NewReader(bytes.NewReader(chunk[k:]))
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	if m, err := r.Read(make([]byte, 1)); m != 0 || err != io.EOF {
		return nil, errors.New("DEFLATE stream runs past its length")
	}
	return out, nil
}
