package capsule

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"loggrep/internal/rtpattern"
)

// withDir returns box with its directory section replaced by dir under
// codec byte c: what an older writer (byte 0, LZMA-lite) or a forger wrote.
func withDir(box []byte, c Codec, dir []byte) []byte {
	n := len(BoxMagic)
	mlen, k := binary.Uvarint(box[n+1:])
	out := append([]byte(BoxMagic), byte(c))
	out = binary.AppendUvarint(out, uint64(len(dir)))
	out = append(out, dir...)
	return append(out, box[n+1+k+int(mlen):]...)
}

// randomMeta builds a directory of every element kind — literal and
// variable template slots, real vars with literal and sub-variable pattern
// elements and outlier rows, nominal vars with dictionary patterns — whose
// shape varies with the seed, and payloads that fit it.
func randomMeta(seed int64) (*Meta, [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	lit := func() string { return fmt.Sprintf("lit%d-%s", rng.Intn(1000), "abcdefgh"[:rng.Intn(9)]) }
	elems := func(n int) []PatternElem {
		es := make([]PatternElem, n)
		for i := range es {
			if rng.Intn(2) == 0 {
				es[i] = PatternElem{Sub: -1, Lit: lit(), CapID: -1}
			} else {
				es[i] = PatternElem{Sub: i, Stamp: rtpattern.Stamp{TypeMask: uint8(rng.Intn(64)), MaxLen: 1 + rng.Intn(40), MinLen: rng.Intn(2)}, CapID: rng.Intn(4)}
			}
		}
		return es
	}
	meta := &Meta{Flags: uint64(rng.Intn(8)), OutlierCapID: -1}
	for range 1 + rng.Intn(6) {
		meta.Capsules = append(meta.Capsules, Info{Kind: SubVar, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 2}, Rows: 1, Width: 2})
	}
	line := 0
	for range 1 + rng.Intn(12) {
		var g GroupMeta
		for range 1 + rng.Intn(8) {
			if rng.Intn(2) == 0 {
				g.Template = append(g.Template, TemplateElem{Var: -1, Lit: lit()})
			} else {
				g.Template = append(g.Template, TemplateElem{Var: len(g.Vars)})
				g.Vars = append(g.Vars, VarMeta{})
			}
		}
		for i := range g.Vars {
			if rng.Intn(2) == 0 {
				var rows []int
				for r := range rng.Intn(5) {
					rows = append(rows, 3*r+rng.Intn(3))
				}
				g.Vars[i] = VarMeta{Kind: RealVar, Pattern: elems(rng.Intn(6)), NumSubs: rng.Intn(4), OutCapID: rng.Intn(3) - 1, OutRows: rows, DictCapID: -1, IndexCapID: -1}
			} else {
				v := VarMeta{Kind: NominalVar, DictCapID: rng.Intn(4), IndexCapID: rng.Intn(4), IndexWidth: 1 + rng.Intn(3), OutCapID: -1}
				for range rng.Intn(4) {
					v.DictPatterns = append(v.DictPatterns, DictPatternMeta{Elems: elems(rng.Intn(4)), Count: rng.Intn(100), MaxLen: rng.Intn(50)})
				}
				g.Vars[i] = v
			}
		}
		var lines []int
		for range 1 + rng.Intn(4) {
			lines = append(lines, line)
			line += 1 + rng.Intn(3)
		}
		g.Lines = NewLineMap(lines)
		meta.Groups = append(meta.Groups, g)
	}
	meta.NumLines = line
	payloads := make([][]byte, len(meta.Capsules))
	for i := range payloads {
		payloads[i] = []byte("42")
	}
	return meta, payloads
}

// TestDirectoryRoundTrip: a directory decodes to exactly what was encoded
// — literals, stamps, every slice — however the decoder's reused scratch
// was last shaped: directories of different shapes decode in turn, from
// many goroutines. The same box with its directory codec byte set to 0,
// LZMA-lite, which only a retired writer wrote, is ErrOldFormat.
func TestDirectoryRoundTrip(t *testing.T) {
	type dirCase struct {
		name string
		want []byte // the directory's encoding
		box  []byte
	}
	var cases []dirCase
	add := func(name string, meta *Meta, payloads [][]byte) {
		box := WriteBox(meta, payloads, 0)
		enc := meta.encode(nil)
		if box[len(BoxMagic)] != byte(CodecDeflate) {
			t.Fatalf("%s: WriteBox wrote directory codec %d", name, box[len(BoxMagic)])
		}
		cases = append(cases, dirCase{name + "/deflate", enc, box})
		if _, err := ReadBox(withDir(box, 0, enc)); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("%s: directory codec 0 read as %v, want ErrOldFormat", name, err)
		}
	}
	meta, payloads := sampleMeta()
	add("sample", meta, payloads)
	for seed := range int64(20) {
		meta, payloads := randomMeta(seed)
		add(fmt.Sprintf("random%d", seed), meta, payloads)
	}
	check := func(c dirCase) error {
		box, err := ReadBox(c.box)
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		if got := box.Meta.encode(nil); !bytes.Equal(got, c.want) {
			return fmt.Errorf("%s: directory re-encodes to %d bytes unlike the %d written", c.name, len(got), len(c.want))
		}
		return nil
	}
	for _, c := range cases {
		if err := check(c); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 5 * len(cases) {
				if err := check(cases[(i*7+w)%len(cases)]); err != nil {
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

// TestDeflateDirectoryForgedBounded: a rev-3 box whose DEFLATE directory
// lies about its length, or whose stream lies about its end, is ErrCorrupt
// from ReadBox; one that declares more than the expansion ceiling is
// rejected before its buffer is allocated, and none allocates more than
// its declared length.
func TestDeflateDirectoryForgedBounded(t *testing.T) {
	meta, payloads := randomMeta(7)
	box := WriteBox(meta, payloads, 0)
	enc := meta.encode(nil)
	if _, err := ReadBox(box); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(enc))
	whole := rawDeflate(enc, true)
	// A directory rejected at its header allocates the Box and the error's
	// text; one rejected in its stream, at most its declared length too.
	const errText = 2048
	for _, tc := range []struct {
		name     string
		dir      []byte
		maxAlloc uint64
	}{
		{"inflates past the declared length", forgeChunk(n, rawDeflate(append(bytes.Clone(enc), "overrun!"...), true)), n + errText},
		{"ends short of the declared length", forgeChunk(n, rawDeflate(enc[:n-8], true)), n + errText},
		{"stream truncated", forgeChunk(n, whole[:len(whole)-2]), n + errText},
		{"stream not final", forgeChunk(n, rawDeflate(enc, false)), n + errText},
		{"bytes after the final block", forgeChunk(n, append(bytes.Clone(whole), 0)), n + errText},
		{"declared length over the 1032:1 ceiling", forgeChunk(64+uint64(len(whole)+binary.MaxVarintLen64)*maxDeflateExpansion+1, whole), errText},
		{"declared length of a terabyte", forgeChunk(1<<40, whole), errText},
		{"no length", []byte{0x80}, errText},
	} {
		forged := withDir(box, CodecDeflate, tc.dir)
		var err error
		a := allocated(func() { _, err = ReadBox(forged) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
		if a > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes, want at most %d", tc.name, a, tc.maxAlloc)
		}
	}
}
