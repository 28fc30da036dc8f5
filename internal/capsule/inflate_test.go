package capsule

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// stdlibInflate is compress/flate's reader under the chunk rule inflate
// replaced: read exactly rawLen bytes, then the reader must report EOF
// with every input byte consumed.
func stdlibInflate(stream []byte, rawLen int) ([]byte, error) {
	src := bytes.NewReader(stream)
	fr := flate.NewReader(src)
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, err
	}
	var extra [1]byte
	if k, err := fr.Read(extra[:]); k != 0 || err != io.EOF || src.Len() != 0 {
		return nil, errDeflateLength
	}
	return out, nil
}

// bitWriter packs a hand-built DEFLATE stream: header fields and extra
// bits least significant bit first, Huffman codes most significant first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

func (w *bitWriter) code(c uint16, n uint8) *bitWriter {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(uint64(c>>i&1), 1)
	}
	return w
}

// stored appends a stored block holding p, or declaring n bytes and nn as
// their complement when p is nil.
func (w *bitWriter) stored(final bool, p []byte, n, nn uint16) *bitWriter {
	w.bits(b2u(final), 1).bits(0, 2)
	w.bits(0, (8-w.n)%8)
	if p != nil {
		n, nn = uint16(len(p)), ^uint16(len(p))
	}
	w.bits(uint64(n), 16).bits(uint64(nn), 16)
	w.out = append(w.out, p...)
	return w
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// canonical returns the RFC 1951 canonical codes of lens; over-subscribed
// lengths get codes that collide, which is what a forged tree needs.
func canonical(lens []uint8) []uint16 {
	var count [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// fixedLens are the fixed block's literal/length code lengths (RFC 1951
// §3.2.6).
func fixedLens() []uint8 {
	lens := make([]uint8, 288)
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	return lens
}

// huff writes symbols of one Huffman code.
type huff struct {
	lens  []uint8
	codes []uint16
}

func newHuff(lens []uint8) huff { return huff{lens, canonical(lens)} }

func (h huff) sym(w *bitWriter, s int) { w.code(h.codes[s], h.lens[s]) }

// A symbol with extra bits, as the data and code-length sections write them.
type hsym struct {
	s     int
	extra uint64
	n     uint
}

// clenLens is the code-length code every hand-built dynamic block uses:
// complete, and each of the 19 symbols present.
var clenLens = func() []uint8 {
	lens := make([]uint8, 19)
	for i, s := range clenOrder {
		lens[s] = 4 + uint8(b2u(i >= 13))
	}
	return lens
}()

// dynamic appends a dynamic block's header: HLIT, HDIST, the code-length
// code, then the literal/length and distance code lengths written as the
// code-length symbols clsyms (lenSyms of the lengths, unless a case forges
// them).
func (w *bitWriter) dynamic(final bool, nlit, ndist int, clsyms []hsym) *bitWriter {
	w.bits(b2u(final), 1).bits(2, 2)
	w.bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(15, 4)
	for _, s := range clenOrder {
		w.bits(uint64(clenLens[s]), 3)
	}
	ch := newHuff(clenLens)
	for _, s := range clsyms {
		ch.sym(w, s.s)
		w.bits(s.extra, s.n)
	}
	return w
}

// lenSyms lists code lengths as plain code-length symbols.
func lenSyms(lens ...[]uint8) []hsym {
	var out []hsym
	for _, ls := range lens {
		for _, l := range ls {
			out = append(out, hsym{s: int(l)})
		}
	}
	return out
}

// data writes literal/length and distance symbols with their extra bits.
func (w *bitWriter) data(lit, dist huff, syms ...hsym) *bitWriter {
	for i, s := range syms {
		h := lit
		if i > 0 && syms[i-1].s > 256 {
			h = dist // a distance follows each length
		}
		h.sym(w, s.s)
		w.bits(s.extra, s.n)
	}
	return w
}

// lengths returns n code lengths, all l but the ones set.
func lengths(n int, l uint8, set map[int]uint8) []uint8 {
	lens := bytes.Repeat([]byte{l}, n)
	for s, v := range set {
		lens[s] = v
	}
	return lens
}

// lits lists the bytes of s as literal symbols; cat joins symbol lists.
func lits(s string) []hsym {
	var out []hsym
	for _, c := range []byte(s) {
		out = append(out, hsym{s: int(c)})
	}
	return out
}

func cat(parts ...[]hsym) []hsym {
	var out []hsym
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var eob = []hsym{{s: 256}}

// longLens is a complete literal/length code reaching 15 bits: literals
// 0-11 of 1-12 bits, EOB 13, length 257 14, literals 14 and 15 15 bits.
func longLens() []uint8 {
	lens := lengths(258, 0, map[int]uint8{256: 13, 257: 14, 14: 15, 15: 15})
	for s := 0; s < 12; s++ {
		lens[s] = uint8(s + 1)
	}
	return lens
}

// shortLens is a complete literal/length code of 2- and 3-bit codes.
var shortLens = lengths(258, 0, map[int]uint8{'a': 2, 'b': 2, 'c': 2, 256: 3, 257: 3})

// TestInflateEdgeStreams decodes hand-built streams at the edges of the
// format with inflate and with compress/flate under the chunk rule: the
// two must agree, and with the expected outcome.
func TestInflateEdgeStreams(t *testing.T) {
	fixed := newHuff(fixedLens())
	fixedDist := newHuff(bytes.Repeat([]byte{5}, 32))
	fixedBlock := func(w *bitWriter, final bool, syms ...hsym) *bitWriter {
		return w.bits(b2u(final), 1).bits(1, 2).data(fixed, fixedDist, syms...)
	}
	dynBlock := func(w *bitWriter, final bool, litLens, distLens []uint8, syms ...hsym) *bitWriter {
		return w.dynamic(final, len(litLens), len(distLens), lenSyms(litLens, distLens)).
			data(newHuff(litLens), newHuff(distLens), syms...)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 2048)    // 32 KiB
	far := append(bytes.Clone(big), big[:16384]...)          // then a match 24577 back
	far = append(far, far[len(far)-24577:len(far)-24574]...) // distance symbol 29, extra 0
	oneCode := lengths(257, 0, map[int]uint8{256: 1})
	for _, tc := range []struct {
		name   string
		stream []byte
		rawLen int
		ok     bool
		want   string
	}{
		{"stored, non-final then final", new(bitWriter).stored(false, []byte("ab"), 0, 0).stored(true, []byte("cd"), 0, 0).bytes(), 4, true, "abcd"},
		{"stored, empty final", new(bitWriter).stored(true, []byte{}, 0, 0).bytes(), 0, true, ""},
		{"stored, LEN/NLEN mismatch", new(bitWriter).stored(true, nil, 2, 2).bits('a', 8).bits('b', 8).bytes(), 2, false, ""},
		{"stored, LEN past the end", new(bitWriter).stored(true, nil, 3, ^uint16(3)).bits('a', 8).bits('b', 8).bytes(), 3, false, ""},
		{"stored, no final block", new(bitWriter).stored(false, []byte("ab"), 0, 0).bytes(), 2, false, ""},
		{"fixed, literal/length 286", fixedBlock(new(bitWriter), true, cat(lits("a"), []hsym{{s: 286}})...).bits(0, 16).bytes(), 1, false, ""},
		{"fixed, literal/length 287", fixedBlock(new(bitWriter), true, cat(lits("a"), []hsym{{s: 287}})...).bits(0, 16).bytes(), 1, false, ""},
		{"fixed, distance 30", fixedBlock(new(bitWriter), true, cat(lits("a"), []hsym{{s: 257}, {s: 30}}, eob)...).bytes(), 4, false, ""},
		{"fixed, distance 31", fixedBlock(new(bitWriter), true, cat(lits("a"), []hsym{{s: 257}, {s: 31}}, eob)...).bytes(), 4, false, ""},
		{"fixed, distance 29", fixedBlock(new(bitWriter).stored(false, big, 0, 0).stored(false, big[:16384], 0, 0), true,
			cat([]hsym{{s: 257}, {s: 29, n: 13}}, eob)...).bytes(), len(far), true, string(far)},
		{"dynamic, HLIT 287", new(bitWriter).bits(1, 1).bits(2, 2).bits(30, 5).bits(0, 5).bits(15, 4).bits(0, 64).bytes(), 0, false, ""},
		{"dynamic, HDIST 31", new(bitWriter).bits(1, 1).bits(2, 2).bits(1, 5).bits(30, 5).bits(15, 4).bits(0, 64).bytes(), 0, false, ""},
		{"dynamic, repeat 16 first", new(bitWriter).dynamic(true, 257, 1, cat([]hsym{{s: 16, n: 2}}, lenSyms(oneCode[3:], []uint8{0}))).bits(0, 8).bytes(), 0, false, ""},
		{"dynamic, repeat past the end", new(bitWriter).dynamic(true, 257, 1, cat(lenSyms(lengths(250, 0, nil)), []hsym{{s: 18, extra: 127, n: 7}})).bits(0, 8).bytes(), 0, false, ""},
		{"dynamic, over-subscribed literal code", dynBlock(new(bitWriter), true, lengths(257, 0, map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{1}, cat(lits("a"), eob)...).bytes(), 1, false, ""},
		{"dynamic, incomplete literal code", dynBlock(new(bitWriter), true, lengths(257, 0, map[int]uint8{'a': 2, 256: 2}), []uint8{1}, cat(lits("a"), eob)...).bytes(), 1, false, ""},
		{"dynamic, one-code literal code", dynBlock(new(bitWriter), true, oneCode, []uint8{0}, eob...).bytes(), 0, true, ""},
		{"dynamic, one-code literal code, missing code", dynBlock(new(bitWriter), true, oneCode, []uint8{0}).bits(1, 1).bytes(), 0, false, ""},
		{"dynamic, one-code distance code", dynBlock(new(bitWriter), true, shortLens, []uint8{1}, cat(lits("ab"), []hsym{{s: 257}, {s: 0}}, eob)...).bytes(), 5, true, "abbbb"},
		{"dynamic, one-code distance code, missing code", dynBlock(new(bitWriter), true, shortLens, []uint8{1}, cat(lits("ab"), []hsym{{s: 257}})...).bits(1, 1).bits(0, 8).bytes(), 5, false, ""},
		{"dynamic, incomplete distance code", dynBlock(new(bitWriter), true, shortLens, []uint8{2, 2}, cat(lits("ab"), []hsym{{s: 257}, {s: 0}}, eob)...).bytes(), 5, false, ""},
		{"dynamic, empty distance code, literals only", dynBlock(new(bitWriter), true, shortLens, []uint8{0}, cat(lits("abc"), eob)...).bytes(), 3, true, "abc"},
		{"dynamic, empty distance code then a length", dynBlock(new(bitWriter), true, shortLens, []uint8{0}, cat(lits("abc"), []hsym{{s: 257}})...).bits(0, 16).bytes(), 6, false, ""},
		{"dynamic, 15-bit codes through sub-tables", dynBlock(new(bitWriter), true, longLens(), []uint8{1, 1},
			cat(lits("\x00\x0e\x0f"), []hsym{{s: 257}, {s: 1}}, lits("\x05"), eob)...).bytes(), 7, true, "\x00\x0e\x0f\x0e\x0f\x0e\x05"},
		{"dynamic, a short code after a long one", dynBlock(dynBlock(new(bitWriter), false, longLens(), []uint8{0}, cat(lits("\x00\x0e\x0f"), eob)...),
			true, shortLens, []uint8{0}, cat(lits("abca"), eob)...).bytes(), 7, true, "\x00\x0e\x0fabca"},
		{"match, 258 bytes", fixedBlock(new(bitWriter), true, cat(lits("x"), []hsym{{s: 285}, {s: 0}}, eob)...).bytes(), 259, true, strings.Repeat("x", 259)},
		{"match, 258 bytes into 257", fixedBlock(new(bitWriter), true, cat(lits("x"), []hsym{{s: 285}, {s: 0}}, eob)...).bytes(), 258, false, ""},
		{"match, distance 32768", fixedBlock(new(bitWriter).stored(false, big, 0, 0), true, cat([]hsym{{s: 257}, {s: 29, extra: 8191, n: 13}}, eob)...).bytes(), 32771, true, string(big) + "012"},
		{"match, overlapping copy", fixedBlock(new(bitWriter), true, cat(lits("ab"), []hsym{{s: 264}, {s: 1}}, eob)...).bytes(), 12, true, "abababababab"},
		{"match, distance past the start", fixedBlock(new(bitWriter), true, cat(lits("ab"), []hsym{{s: 257}, {s: 2}}, eob)...).bytes(), 5, false, ""},
		{"match, distance 32768 past the start", fixedBlock(new(bitWriter).stored(false, big[1:], 0, 0), true, cat([]hsym{{s: 257}, {s: 29, extra: 8191, n: 13}}, eob)...).bytes(), 32770, false, ""},
		{"ends mid-symbol", fixedBlock(new(bitWriter), true, cat(lits("abcdef"), eob)...).bytes()[:5], 6, false, ""},
		{"trailed by one byte", append(fixedBlock(new(bitWriter), true, cat(lits("abc"), eob)...).bytes(), 0), 3, false, ""},
		{"empty output", fixedBlock(new(bitWriter), true, eob...).bytes(), 0, true, ""},
		{"empty output, declared one", fixedBlock(new(bitWriter), true, eob...).bytes(), 1, false, ""},
		{"empty input", nil, 0, false, ""},
		{"reserved block type", new(bitWriter).bits(1, 1).bits(3, 2).bits(0, 13).bytes(), 0, false, ""},
	} {
		var z inflater
		out := make([]byte, tc.rawLen)
		err := z.inflate(out, tc.stream)
		ref, refErr := stdlibInflate(tc.stream, tc.rawLen)
		switch {
		case (err == nil) != (refErr == nil) || err == nil && !bytes.Equal(out, ref):
			t.Errorf("%s: inflate %v, compress/flate %v", tc.name, err, refErr)
		case (err == nil) != tc.ok:
			t.Errorf("%s: inflate and compress/flate say %v, want ok=%v", tc.name, err, tc.ok)
		case tc.ok && string(out) != tc.want:
			t.Errorf("%s: %q, want %q", tc.name, out, tc.want)
		}
	}
}

// FuzzInflateMatchesStdlib: on any bytes under any declared length,
// inflate and compress/flate under the chunk rule agree on accept or
// reject, and on every output byte.
func FuzzInflateMatchesStdlib(f *testing.F) {
	inputs := [][]byte{
		nil,
		[]byte("a"),
		bytes.Repeat([]byte("T134 bk.FF.13 read\n"), 40),
		bytes.Repeat([]byte{0}, 5000),
		[]byte("2023-01-02 10:11:12 INFO blk_-42 served 10.0.0.7:50010 to /10.0.0.9 in 17ms\n"),
	}
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression, flate.HuffmanOnly} {
		for _, p := range inputs {
			var b bytes.Buffer
			w, _ := flate.NewWriter(&b, level)
			w.Write(p)
			w.Close()
			s := b.Bytes()
			f.Add(s, uint32(len(p)))
			f.Add(s[:len(s)/2], uint32(len(p)))
			f.Add(s[:max(len(s)-1, 0)], uint32(len(p)))
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte, rawLen uint32) {
		// Lengths past the expansion ceiling never reach inflate.
		if uint64(rawLen) > 64+uint64(len(stream))*maxDeflateExpansion || rawLen > 1<<20 {
			return
		}
		var z inflater
		out := make([]byte, rawLen)
		err := z.inflate(out, stream)
		ref, refErr := stdlibInflate(stream, int(rawLen))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("inflate %v, compress/flate %v", err, refErr)
		}
		if err == nil && !bytes.Equal(out, ref) {
			t.Fatalf("inflate and compress/flate disagree on %d output bytes", rawLen)
		}
	})
}

// TestBuildTableRandomCodes builds complete codes of up to 15 bits into
// the decoder's own table arrays, and looks every symbol's code up: each
// must resolve, through a sub-table where it is longer than the primary
// bits, to the symbol and its length. The first code needs 402 entries of
// distance table only if a new sub-table is sized without the code that
// opens it; sized right, it fits.
func TestBuildTableRandomCodes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var z inflater
	base := make([]uint32, 288)
	for s := range base {
		base[s] = uint32(s) << 16
	}
	for iter := 0; iter < 3000; iter++ {
		table, syms, capBits := z.lit[:], 286, uint(litCapBits)
		if iter%2 == 0 {
			table, syms, capBits = z.dist[:], 30, distCapBits
		}
		lens := []uint8{5, 3, 2, 3, 4, 12, 6, 2, 3, 9, 9, 9, 9, 12, 9, 10, 12, 12, 13, 9, 12, 11, 12, 13, 15, 12, 14, 15, 13, 12}
		if iter > 0 {
			// Split leaves of a code tree, deep ones more often.
			leaves := []uint8{1, 1}
			for len(leaves) < syms && r.Intn(syms+8) > 4 {
				i := r.Intn(len(leaves))
				if j := r.Intn(len(leaves)); leaves[j] > leaves[i] {
					i = j
				}
				if leaves[i] < 15 {
					leaves[i]++
					leaves = append(leaves, leaves[i])
				}
			}
			lens = make([]uint8, syms)
			for k, s := range r.Perm(syms)[:len(leaves)] {
				lens[s] = leaves[k]
			}
		}
		pb, ok := buildTable(table, lens, base, capBits)
		if !ok {
			t.Fatalf("complete code rejected: lengths %v", lens)
		}
		codes := canonical(lens)
		for s, l := range lens {
			if l == 0 {
				continue
			}
			rev := uint64(bits.Reverse16(codes[s]) >> (16 - l))
			e := table[rev&(1<<pb-1)]
			if e&entKindMask == kindLink {
				e = table[e>>16+uint32(rev>>(e&entLenMask))&(1<<(e>>8&15)-1)]
			}
			if e>>16 != uint32(s) || e&entLenMask != uint32(l) {
				t.Fatalf("symbol %d (%d bits) decodes as %d (%d bits); lengths %v", s, l, e>>16, e&entLenMask, lens)
			}
		}
	}
}

// TestPayloadsFromManyGoroutines opens boxes and inflates every capsule
// from four goroutines at once: directory and capsule decodes borrow
// tables from one pool, and each payload must come back as written.
func TestPayloadsFromManyGoroutines(t *testing.T) {
	type boxCase struct {
		data     []byte
		payloads [][]byte
	}
	var cases []boxCase
	for seed := range int64(12) {
		meta, payloads := randomMeta(seed)
		cases = append(cases, boxCase{WriteBox(meta, payloads, int(seed%3)*16), payloads})
	}
	check := func(c boxCase) error {
		box, err := ReadBox(c.data)
		if err != nil {
			return err
		}
		for id, want := range c.payloads {
			if got, err := box.Payload(id); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("capsule %d: %v", id, err)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(cases) {
				if err := check(cases[(i*5+w)%len(cases)]); err != nil {
					errs <- err
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
