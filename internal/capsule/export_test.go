package capsule

// ChunkCodec exposes the DEFLATE chunk codec, one deflater and one set of
// decode tables reused across calls as WriteBox and the decoder pool reuse
// theirs, to the external benchmarks.
type ChunkCodec struct {
	z  deflater
	in inflater
}

// Deflate codes raw as one chunk, valid until the next call.
func (c *ChunkCodec) Deflate(raw []byte) []byte { return c.z.chunk(raw) }

// Inflate decodes one chunk of at most limit bytes.
func (c *ChunkCodec) Inflate(chunk []byte, limit uint64) ([]byte, error) {
	return c.in.decode(chunk, limit)
}

// decode is decodeInto into a fresh buffer, under limit alone.
func (z *inflater) decode(chunk []byte, limit uint64) ([]byte, error) {
	return z.decodeInto(nil, chunk, limit, false)
}
