package capsule

import (
	"encoding/binary"
	"fmt"

	"loggrep/internal/lzma"
	"loggrep/internal/strmatch"
)

// Capsule chunking: optionally, a Capsule's payload is cut at row
// boundaries into chunks that compress independently, so fetching the
// i-th value decompresses one chunk instead of the whole Capsule. The
// paper compresses each Capsule whole (blocks bound Capsule size); this is
// an extension useful when query matches cluster — reconstruction then
// touches a few chunks of each Capsule rather than all of it. The
// trade-off is a slightly lower compression ratio (smaller compression
// contexts), quantified by BenchmarkChunkedCapsules.
//
// Blob wire format (per capsule):
//
//	uvarint numChunks
//	  numChunks == 1: uvarint(len) + lzma blob            (unchunked)
//	  else: uvarint rowsPerChunk, then per chunk uvarint(len) + lzma blob

// chunkRowBoundaries returns the byte offset of each row boundary for a
// var-width payload (delimiter-separated values).
func chunkVarPayload(payload []byte, rows, rowsPerChunk int) [][]byte {
	var chunks [][]byte
	start := 0
	rowInChunk := 0
	pos := 0
	for ; pos < len(payload); pos++ {
		if payload[pos] != strmatch.Delim {
			continue
		}
		rowInChunk++
		if rowInChunk == rowsPerChunk {
			chunks = append(chunks, payload[start:pos])
			start = pos + 1
			rowInChunk = 0
		}
	}
	chunks = append(chunks, payload[start:])
	return chunks
}

// chunkRows returns the rows per chunk a capsule payload is cut at, or 0
// when it compresses whole: chunking is off, the capsule is a dictionary or
// a single row, or the payload is no larger than target.
func chunkRows(info *Info, payload []byte, target int) int {
	if target <= 0 || info.Kind == Dict || info.Rows <= 1 || len(payload) <= target {
		return 0
	}
	avgRow := (len(payload) + info.Rows - 1) / info.Rows
	return max(1, target/max(1, avgRow))
}

// appendBlob compresses one capsule payload, chunked as chunkRows says, and
// appends its blob to dst.
func appendBlob(dst []byte, info *Info, payload []byte, target int) []byte {
	rowsPerChunk := chunkRows(info, payload, target)
	if rowsPerChunk == 0 {
		dst = binary.AppendUvarint(dst, 1)
		return appendChunk(dst, payload)
	}
	var chunks [][]byte
	if info.Width > 0 {
		stride := rowsPerChunk * info.Width
		for off := 0; off < len(payload); off += stride {
			end := min(off+stride, len(payload))
			chunks = append(chunks, payload[off:end])
		}
	} else {
		chunks = chunkVarPayload(payload, info.Rows, rowsPerChunk)
	}
	dst = binary.AppendUvarint(dst, uint64(len(chunks)))
	dst = binary.AppendUvarint(dst, uint64(rowsPerChunk))
	for _, ch := range chunks {
		dst = appendChunk(dst, ch)
	}
	return dst
}

// appendChunk appends uvarint(len) + lzma blob for one chunk.
func appendChunk(dst, chunk []byte) []byte {
	c := lzma.Compress(chunk)
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	return append(dst, c...)
}

// blobRef locates one capsule's chunks inside the box buffer.
type blobRef struct {
	rowsPerChunk int
	chunks       [][]byte // compressed
	encLen       int      // encoded size in the box, chunk framing included
}

func decodeBlobRef(data []byte) (blobRef, int, error) {
	var br blobRef
	pos := 0
	numChunks, n := binary.Uvarint(data)
	if n <= 0 || numChunks == 0 || numChunks > uint64(len(data)) {
		return br, 0, fmt.Errorf("%w: bad chunk count", ErrCorrupt)
	}
	pos += n
	if numChunks > 1 {
		rpc, n := binary.Uvarint(data[pos:])
		if n <= 0 || rpc == 0 {
			return br, 0, fmt.Errorf("%w: bad rows per chunk", ErrCorrupt)
		}
		pos += n
		br.rowsPerChunk = int(rpc)
	}
	for i := uint64(0); i < numChunks; i++ {
		cl, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < cl {
			return br, 0, fmt.Errorf("%w: chunk %d truncated", ErrCorrupt, i)
		}
		pos += n
		br.chunks = append(br.chunks, data[pos:pos+int(cl)])
		pos += int(cl)
	}
	return br, pos, nil
}
