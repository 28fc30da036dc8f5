package capsule

// ChunkCodec exposes the DEFLATE chunk codec to the external benchmarks:
// each Deflate borrows an encoder from the pool WriteBox draws on, and one
// set of decode tables is reused across calls as the decoder pool reuses
// its own.
type ChunkCodec struct {
	buf []byte
	in  inflater
}

// Deflate codes raw as one chunk, valid until the next call.
func (c *ChunkCodec) Deflate(raw []byte) []byte {
	z := deflaters.Get().(*deflater)
	c.buf = append(c.buf[:0], z.chunk(raw)...)
	deflaters.Put(z)
	return c.buf
}

// Inflate decodes one chunk of at most limit bytes.
func (c *ChunkCodec) Inflate(chunk []byte, limit uint64) ([]byte, error) {
	return c.in.decode(chunk, limit)
}

// decode is decodeInto into a fresh buffer, under limit alone.
func (z *inflater) decode(chunk []byte, limit uint64) ([]byte, error) {
	return z.decodeInto(nil, chunk, limit, false)
}

// Allocated is allocated, for the external tests.
var Allocated = allocated
