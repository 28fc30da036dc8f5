package capsule

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"loggrep/internal/loggen"
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

// checkTwin codes p with z after prefix, and fails unless the prefix is
// kept, the stream is byte for byte compress/flate's level-9 stream of p,
// and inflate decodes it back to p.
func checkTwin(t testing.TB, z *deflater, p, want []byte) {
	t.Helper()
	const prefix = "chunk"
	got := z.appendStream([]byte(prefix), p)
	if string(got[:len(prefix)]) != prefix {
		t.Fatalf("%d bytes: the prefix was overwritten", len(p))
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%d bytes: %d-byte stream, compress/flate's is %d bytes; first difference at byte %d", len(p), len(got), len(want), i)
	}
	var in inflater
	out := make([]byte, len(p))
	if err := in.inflate(out, got); err != nil || !bytes.Equal(out, p) {
		t.Fatalf("%d bytes: inflate: %v", len(p), err)
	}
}

// FuzzDeflateMatchesStdlib: for any payload, the encoder's stream is
// compress/flate's level-9 stream, and inflates back to the payload. Each
// input then codes a seeded run of its own pieces through the same pooled
// encoder, whose tables hold the strings of the streams before it.
func FuzzDeflateMatchesStdlib(f *testing.F) {
	lt, _ := loggen.ByName("G")
	logText := lt.Block(1, 2000)
	for _, p := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcdabcdabcd"),
		bytes.Repeat([]byte("T134 bk.FF.13 read\n"), 40),
		bytes.Repeat([]byte{0}, 5000),
		logText[:300],
		logText[:70_000],
	} {
		f.Add(p, uint64(len(p)))
	}
	// One compress/flate writer, Reset per stream, serves the calls of one
	// fuzzing process, which come one at a time.
	var b bytes.Buffer
	std, _ := flate.NewWriter(&b, flate.BestCompression)
	stdlib := func(p []byte) []byte {
		b.Reset()
		std.Reset(&b)
		std.Write(p)
		std.Close()
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, p []byte, seed uint64) {
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z)
		checkTwin(t, z, p, stdlib(p))
		r := rand.New(rand.NewPCG(seed, 1))
		for range 4 {
			i := r.IntN(len(p) + 1)
			q := p[i : i+r.IntN(len(p)-i+1)]
			checkTwin(t, z, q, stdlib(q))
		}
	})
}

// TestDeflateMatchesStdlibLong holds the encoder to compress/flate on the
// cases short payloads never reach: empty, 1-byte and incompressible
// payloads (a stored block), more than 64 KiB (the window slides), more
// than 16 384 tokens (several blocks), and more than 16 MiB through one
// encoder, so that the hash offset passes compress/flate's 1<<24 rebase
// bound once at a stream's start (the tables are cleared) and once inside
// a stream (they are rebased).
func TestDeflateMatchesStdlibLong(t *testing.T) {
	lt, _ := loggen.ByName("A")
	logText := lt.Block(3, 30_000)
	if len(logText) < 2<<20 {
		t.Fatalf("log text is %d bytes", len(logText))
	}
	random := make([]byte, 40_000)
	r := rand.New(rand.NewPCG(7, 7))
	for i := range random {
		random[i] = byte(r.Uint32())
	}
	z := new(deflater)
	for _, tc := range []struct {
		name   string
		p      []byte
		stored bool
	}{
		{"empty", nil, true},
		{"1 byte", []byte{'x'}, false},
		{"incompressible, 3 blocks", random, true},
		{"log text, 1 MiB", logText[:1<<20], false},
		{"64 KiB + 1", logText[:windowSize*2+1], false},
		{"log text, 200 B", logText[:200], false},
	} {
		want := rawDeflate(tc.p, true)
		checkTwin(t, z, tc.p, want)
		// Incompressible input is stored a block of 16 384 literals at a
		// time, 5 bytes of header each, then the 5-byte trailer.
		if tc.stored {
			if blocks := (len(tc.p) + maxFlateBlockTokens - 1) / maxFlateBlockTokens; len(want) != len(tc.p)+5*blocks+5 {
				t.Fatalf("%s: %d bytes, not %d stored blocks", tc.name, len(want), blocks)
			}
		}
	}

	// Pass the bound at a stream's start: 1 MiB streams up to the last
	// 1.5 MiB before it, then 60 KB streams, which never slide. Then
	// inside a stream: 1 MiB streams up to the last 1.5 MiB again, then a
	// 2 MiB stream, which slides past it. The 1 MiB streams repeat 4 KiB
	// of log text, which level 9 codes fast; the streams that pass the
	// bound are log text.
	climb := bytes.Repeat(logText[:4096], 256)
	near, across := logText[:60_000], logText[:2<<20]
	refs := map[int][]byte{} // by length, which tells the three apart
	for _, p := range [][]byte{climb, near, across} {
		refs[len(p)] = rawDeflate(p, true)
	}
	var startClear, midRebase bool
	for total := 0; !midRebase; {
		if total > 40<<20 {
			t.Fatalf("%d MiB in without passing the rebase bound (start %v, inside %v)", total>>20, startClear, midRebase)
		}
		pre := z.hashOffset + z.windowEnd
		p := climb
		if maxHashOffset-pre <= 3<<19 {
			p = near
			if startClear {
				p = across
			}
		}
		checkTwin(t, z, p, refs[len(p)])
		total += len(p)
		switch {
		case pre > maxHashOffset:
			startClear = true
		case z.hashOffset < pre:
			if !startClear {
				t.Fatalf("rebased inside a %d-byte stream before a start-of-stream clear", len(p))
			}
			midRebase = true
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

// TestWriteBoxFromManyGoroutines writes boxes from four goroutines at
// once, as archive.Writer compresses blocks: their encoders come from one
// pool, each holding what other boxes left in its tables, and every box
// must come out byte for byte as one written alone.
func TestWriteBoxFromManyGoroutines(t *testing.T) {
	const boxes = 12
	write := func(seed int64) []byte {
		meta, payloads := randomMeta(seed)
		return WriteBox(meta, payloads, int(seed%3)*16)
	}
	want := make([][]byte, boxes)
	for seed := range want {
		want[seed] = write(int64(seed))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * boxes {
				seed := (i*5 + w) % boxes
				if !bytes.Equal(write(int64(seed)), want[seed]) {
					errs <- fmt.Errorf("box %d differs from the one written alone", seed)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
