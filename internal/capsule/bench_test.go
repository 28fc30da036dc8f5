package capsule_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/lzma"
)

var sink []byte

// benchBlock is one real 2 MiB block of type G: its raw size and its box.
var benchBlock = sync.OnceValues(func() (int, *capsule.Box) {
	lt, _ := loggen.ByName("G")
	raw := lt.Block(1, 40000)
	block := raw[:bytes.LastIndexByte(raw[:2<<20], '\n')+1]
	box, err := capsule.ReadBox(core.Compress(block, core.DefaultOptions()))
	if err != nil {
		panic(err)
	}
	return len(block), box
})

// decodeAll decompresses every capsule of box.
func decodeAll(b *testing.B, box *capsule.Box) [][]byte {
	out := make([][]byte, len(box.Meta.Capsules))
	for id := range out {
		var err error
		if out[id], err = box.Payload(id); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkWriteBox packs one real 2 MiB block's directory and payloads:
// the Packer stage as core.Compress runs it, without parse and extract.
func BenchmarkWriteBox(b *testing.B) {
	block, box := benchBlock()
	payloads := decodeAll(b, box)
	b.SetBytes(int64(block))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = capsule.WriteBox(box.Meta, payloads, 0)
	}
}

// BenchmarkCapsuleCodec encodes and decodes one capsule payload per op, by
// codec and size class: the first real payload of the class's size or
// larger, cut to it. The small classes carry each codec's fixed cost per
// capsule (flate's level-9 Reset clears its hash tables), the large ones
// its throughput. The deflate-stdlib rows decode the deflate rows' chunks
// with compress/flate's reader, Reset per chunk, as a reference for the
// whole-buffer decoder.
func BenchmarkCapsuleCodec(b *testing.B) {
	_, box := benchBlock()
	payloads := decodeAll(b, box)
	for _, size := range []int{64, 256, 4 << 10, 64 << 10} {
		var p []byte
		for _, q := range payloads {
			if len(q) >= size {
				p = q[:size]
				break
			}
		}
		if p == nil {
			b.Fatalf("no payload of %d bytes", size)
		}
		var c capsule.ChunkCodec
		var std stdlibChunkReader
		codecs := []struct {
			name       string
			encode     func([]byte) []byte
			decode     func([]byte) ([]byte, error)
			decodeOnly bool // the encoder is another row's
		}{
			{"lzma", lzma.Compress, func(c []byte) ([]byte, error) { return lzma.DecompressLimit(c, uint64(size)) }, false},
			{"deflate", c.Deflate, func(chunk []byte) ([]byte, error) { return c.Inflate(chunk, uint64(size)) }, false},
			{"deflate-stdlib", c.Deflate, std.decode, true},
		}
		for _, cd := range codecs {
			enc := bytes.Clone(cd.encode(p))
			if !cd.decodeOnly {
				b.Run(fmt.Sprintf("%s/%dB/encode", cd.name, size), func(b *testing.B) {
					b.SetBytes(int64(size))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sink = cd.encode(p)
					}
				})
			}
			b.Run(fmt.Sprintf("%s/%dB/decode", cd.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if sink, err = cd.decode(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// stdlibChunkReader decodes a DEFLATE chunk (uvarint length, raw stream)
// with one compress/flate reader Reset per chunk onto one bytes.Reader.
type stdlibChunkReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

func (r *stdlibChunkReader) decode(chunk []byte) ([]byte, error) {
	n, k := binary.Uvarint(chunk)
	if k <= 0 {
		return nil, errors.New("bad length")
	}
	r.src.Reset(chunk[k:])
	if r.fr == nil {
		r.fr = flate.NewReader(&r.src)
	} else {
		r.fr.(flate.Resetter).Reset(&r.src, nil)
	}
	out := make([]byte, n)
	_, err := io.ReadFull(r.fr, out)
	return out, err
}
