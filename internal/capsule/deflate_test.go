package capsule

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"loggrep/internal/rtpattern"
)

// rawDeflate is one level-9 DEFLATE stream of p; final reports whether it
// is closed by a final block (Close) or only sync-flushed (Flush).
func rawDeflate(p []byte, final bool) []byte {
	var b bytes.Buffer
	w, _ := flate.NewWriter(&b, flate.BestCompression)
	w.Write(p)
	if final {
		w.Close()
	} else {
		w.Flush()
	}
	return b.Bytes()
}

// forgeChunk frames stream as a DEFLATE chunk declaring rawLen bytes.
func forgeChunk(rawLen uint64, stream []byte) []byte {
	return append(binary.AppendUvarint(nil, rawLen), stream...)
}

// allocated returns the bytes f allocates on the heap: the least of five
// runs, as the counter is process-wide and the runtime allocates too.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestDeflateForgedChunksBounded: a capsule whose DEFLATE chunk lies about
// its length, or whose stream lies about its end, is corrupt, and decoding
// it allocates no more than the directory's bound on the capsule.
func TestDeflateForgedChunksBounded(t *testing.T) {
	const rows, width = 1000, 8
	payload := bytes.Repeat([]byte("7f3a9c21"), rows)
	meta := &Meta{
		OutlierCapID: -1,
		Capsules: []Info{
			{Kind: SubVar, Stamp: rtpattern.Stamp{TypeMask: 3, MaxLen: width}, Rows: rows, Width: width},
			// A column wide enough that only the expansion ceiling binds.
			{Kind: Outlier, Stamp: rtpattern.Stamp{TypeMask: 63, MaxLen: 1 << 20}, Rows: rows, Width: 0},
		},
	}
	box, err := ReadBox(WriteBox(meta, [][]byte{payload, payload}, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The first decode fills the decoder pool; measure after it.
	if got, err := box.Payload(0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pristine capsule: %v", err)
	}
	bound := payloadBound(rows, &box.Meta.Capsules[0])
	whole := rawDeflate(payload, true)
	longer := rawDeflate(append(bytes.Clone(payload), "overrun!"...), true)
	// A chunk whose header is rejected allocates only the error's text; one
	// whose stream is rejected, its output buffer too, at most the bound.
	const errText = 1024
	for _, tc := range []struct {
		name     string
		id       int
		chunk    []byte
		maxAlloc uint64
	}{
		{"declared length above the payload bound", 0, forgeChunk(64*bound, rawDeflate(make([]byte, 64*bound), true)), errText},
		{"stream inflates past the declared length", 0, forgeChunk(uint64(len(payload)), longer), bound + errText},
		{"stream ends short of the declared length", 0, forgeChunk(uint64(len(payload)), rawDeflate(payload[:len(payload)-8], true)), bound + errText},
		{"stream truncated", 0, forgeChunk(uint64(len(payload)), whole[:len(whole)-2]), bound + errText},
		{"stream not final", 0, forgeChunk(uint64(len(payload)), rawDeflate(payload, false)), bound + errText},
		{"bytes after the final block", 0, forgeChunk(uint64(len(payload)), append(bytes.Clone(whole), 0)), bound + errText},
		{"declared length over the 1032:1 ceiling", 1, forgeChunk(64+1032*16, bytes.Repeat([]byte{0}, 12)), errText},
		// Within the payload bound but not rows×width: a fixed-width
		// capsule knows its exact size before inflating.
		{"fixed-width declared length above rows×width", 0, forgeChunk(bound, rawDeflate(make([]byte, bound), true)), errText},
		{"no length", 0, []byte{0x80}, errText},
	} {
		box.DropCache()
		box.refs[tc.id].chunks[0] = tc.chunk
		var err error
		n := allocated(func() { _, err = box.Payload(tc.id) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
		if n > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes, want at most %d", tc.name, n, tc.maxAlloc)
		}
	}
}

// TestDeflateChunkRoundTrip: every size class round-trips through one
// deflater and one inflater reused across chunks, and a chunk decodes
// under a limit of exactly its length but not one byte less.
func TestDeflateChunkRoundTrip(t *testing.T) {
	var z deflater
	var in inflater
	for _, n := range []int{0, 1, 63, 64, 256, 4096, 65536, 200_000} {
		p := make([]byte, n)
		for i := range p {
			p[i] = "ab0123456789 \x00"[i*7%13+i/97%2]
		}
		c := bytes.Clone(z.chunk(p))
		got, err := in.decode(c, uint64(n))
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if n > 0 {
			if _, err := in.decode(c, uint64(n-1)); err == nil {
				t.Fatalf("%d bytes decoded under a limit of %d", n, n-1)
			}
		}
	}
}

// FuzzDecodeChunk: any bytes under any limit must never panic, and what
// decodes is exactly the declared length — within the limit and the
// expansion ceiling.
func FuzzDecodeChunk(f *testing.F) {
	var z deflater
	for _, p := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte("T134 bk.FF.13 read\n"), 40), bytes.Repeat([]byte{0}, 5000)} {
		c := bytes.Clone(z.chunk(p))
		f.Add(c, uint64(len(p)))
		f.Add(c, uint64(len(p))/2)
		f.Add(c[:len(c)/2], uint64(len(p)))
	}
	f.Add(forgeChunk(1<<40, rawDeflate([]byte("x"), true)), uint64(1<<62))
	f.Add(forgeChunk(9, rawDeflate([]byte("x"), false)), uint64(100))
	f.Fuzz(func(t *testing.T, chunk []byte, limit uint64) {
		var in inflater
		out, err := in.decode(chunk, limit)
		if err != nil {
			return
		}
		rawLen, _ := binary.Uvarint(chunk)
		if uint64(len(out)) != rawLen || rawLen > limit || rawLen > 64+uint64(len(chunk))*maxDeflateExpansion {
			t.Fatalf("%d bytes out of a %d-byte chunk declaring %d, limit %d", len(out), len(chunk), rawLen, limit)
		}
	})
}
