package capsule

// ChunkCodec exposes the DEFLATE chunk codec, one deflater and one
// inflater reused across calls as WriteBox and Box reuse theirs, to the
// external benchmarks.
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
