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
func decodeAll(b testing.TB, box *capsule.Box) [][]byte {
	out := make([][]byte, len(box.Meta.Capsules))
	for id := range out {
		var err error
		if out[id], err = box.Payload(id); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// TestWriteBoxAllocatesNoEncoder: once an encoder is pooled, packing a
// real 2 MiB block allocates the box's own buffer (presized to half the
// payload bytes, regrown if they pack worse) and the line maps' scratch,
// which stay under twice the box; an encoder is 733 KB and a compress/flate
// writer more, over twice a 340 KB box on their own.
func TestWriteBoxAllocatesNoEncoder(t *testing.T) {
	_, box := benchBlock()
	payloads := decodeAll(t, box)
	out := capsule.WriteBox(box.Meta, payloads, 0)
	n := capsule.Allocated(func() { sink = capsule.WriteBox(box.Meta, payloads, 0) })
	if bound := 2 * uint64(len(out)); n > bound {
		t.Fatalf("WriteBox allocated %d bytes for a %d-byte box, want at most %d", n, len(out), bound)
	}
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
// capsule, the large ones its throughput. The deflate-stdlib rows code
// the same chunks with compress/flate, one level-9 writer and one reader
// Reset per chunk, as a reference for the package's own encoder and
// decoder; the chunks are byte-identical.
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
		var std stdlibChunkCodec
		codecs := []struct {
			name   string
			encode func([]byte) []byte
			decode func([]byte) ([]byte, error)
		}{
			{"lzma", lzma.Compress, func(c []byte) ([]byte, error) { return lzma.DecompressLimit(c, uint64(size)) }},
			{"deflate", c.Deflate, func(chunk []byte) ([]byte, error) { return c.Inflate(chunk, uint64(size)) }},
			{"deflate-stdlib", std.encode, std.decode},
		}
		for _, cd := range codecs {
			enc := bytes.Clone(cd.encode(p))
			b.Run(fmt.Sprintf("%s/%dB/encode", cd.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = cd.encode(p)
				}
			})
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

// stdlibChunkCodec codes a DEFLATE chunk (uvarint length, raw stream) with
// one compress/flate level-9 writer and one reader, each Reset per chunk.
type stdlibChunkCodec struct {
	out bytes.Buffer
	fw  *flate.Writer
	src bytes.Reader
	fr  io.ReadCloser
}

func (s *stdlibChunkCodec) encode(raw []byte) []byte {
	s.out.Reset()
	s.out.Write(binary.AppendUvarint(nil, uint64(len(raw))))
	if s.fw == nil {
		s.fw, _ = flate.NewWriter(&s.out, flate.BestCompression)
	} else {
		s.fw.Reset(&s.out)
	}
	s.fw.Write(raw)
	s.fw.Close()
	return s.out.Bytes()
}

func (s *stdlibChunkCodec) decode(chunk []byte) ([]byte, error) {
	n, k := binary.Uvarint(chunk)
	if k <= 0 {
		return nil, errors.New("bad length")
	}
	s.src.Reset(chunk[k:])
	if s.fr == nil {
		s.fr = flate.NewReader(&s.src)
	} else {
		s.fr.(flate.Resetter).Reset(&s.src, nil)
	}
	out := make([]byte, n)
	_, err := io.ReadFull(s.fr, out)
	return out, err
}
