package blockindex

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// naiveScan is ScanBlock's oracle: every token occurrence pushes its
// grams through a map and is normalized afresh.
type naiveScan struct {
	grams    map[uint64]struct{}
	vocab    map[string]struct{}
	overlong bool
}

func scanBlockNaive(block []byte) naiveScan {
	sc := naiveScan{grams: make(map[uint64]struct{}), vocab: make(map[string]struct{})}
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := string(block[start:end])
		start = -1
		if sc.grams != nil {
			for i := 0; i+GramLen <= len(tok); i++ {
				sc.grams[gramHash(tok[i], tok[i+1], tok[i+2], tok[i+3])] = struct{}{}
			}
			if len(sc.grams) > maxBlockGrams {
				sc.grams = nil
			}
		}
		norm := normalizeNaive(tok)
		if pureVolatile(norm) {
			return
		}
		if len(norm) > maxVocabTokenLen {
			sc.overlong = true
			return
		}
		sc.vocab[norm] = struct{}{}
	}
	for i := 0; i < len(block); i++ {
		b := block[i]
		if b == '\n' || logparse.IsDelim(b) {
			flush(i)
			continue
		}
		if start < 0 {
			start = i
		}
	}
	flush(len(block))
	return sc
}

func normalizeNaive(s string) string {
	isNum := func(b byte) bool { return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F' }
	var b strings.Builder
	for i := 0; i < len(s); {
		if !isNum(s[i]) {
			b.WriteByte(s[i])
			i++
			continue
		}
		b.WriteByte(Marker)
		for i < len(s) && isNum(s[i]) {
			i++
		}
	}
	return b.String()
}

// blockScan feeds the oracle's digest to a Builder.
func (n naiveScan) blockScan() *BlockScan {
	sc := &BlockScan{vocab: n.vocab, overlong: n.overlong}
	if n.grams != nil {
		sc.grams = newGramSet(0)
		for h := range n.grams {
			sc.grams.add(h)
		}
	}
	return sc
}

func gramMap(s *gramSet) map[uint64]struct{} {
	m := make(map[uint64]struct{}, s.len())
	for _, h := range s.slots {
		if h != 0 {
			m[h] = struct{}{}
		}
	}
	if s.zero {
		m[0] = struct{}{}
	}
	return m
}

// checkScanMatchesNaive compares ScanBlock with the oracle on one block:
// gram set, vocabulary, overlong flag and the encoded sections.
func checkScanMatchesNaive(t *testing.T, name string, block []byte) {
	t.Helper()
	got, want := ScanBlock(block), scanBlockNaive(block)
	if (got.grams == nil) != (want.grams == nil) {
		t.Fatalf("%s: gram set dropped = %v, oracle %v", name, got.grams == nil, want.grams == nil)
	}
	if got.grams != nil && !maps.Equal(gramMap(got.grams), want.grams) {
		t.Fatalf("%s: %d grams, oracle %d", name, got.grams.len(), len(want.grams))
	}
	if !maps.Equal(got.vocab, want.vocab) {
		t.Fatalf("%s: vocabulary of %d tokens, oracle %d", name, len(got.vocab), len(want.vocab))
	}
	if got.overlong != want.overlong {
		t.Fatalf("%s: overlong = %v, oracle %v", name, got.overlong, want.overlong)
	}
	lines := bytes.Count(block, []byte{'\n'}) + 1
	gb, wb := NewBuilder(), NewBuilder()
	gb.Add(0, lines, len(block)/7, got)
	wb.Add(0, lines, len(block)/7, want.blockScan())
	if !bytes.Equal(gb.Sections(), wb.Sections()) {
		t.Fatalf("%s: encoded sections differ from the oracle's", name)
	}
}

// loggenBlock renders lines of the named type up to size bytes, cut at a
// line boundary.
func loggenBlock(tb testing.TB, lt loggen.LogType, size int) []byte {
	tb.Helper()
	n := size/len(lt.Block(1, 64))*64 + 64
	for {
		blk := lt.Block(1, n)
		if len(blk) >= size {
			return blk[:bytes.LastIndexByte(blk[:size], '\n')+1]
		}
		n *= 2
	}
}

func TestScanBlockMatchesNaive(t *testing.T) {
	size := 2 << 20
	if testing.Short() {
		size = 128 << 10
	}
	for _, lt := range loggen.All() {
		blk := loggenBlock(t, lt, size)
		checkScanMatchesNaive(t, lt.Name+"/2MiB", blk)
		small := blk[:bytes.LastIndexByte(blk[:128<<10], '\n')+1]
		checkScanMatchesNaive(t, lt.Name+"/128KiB", small)
	}

	rng := rand.New(rand.NewSource(7))
	var prefixes, long, hex strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&prefixes, "request_handler_component_%05d ", i)
		if i%50 == 0 {
			prefixes.WriteByte('\n')
		}
	}
	for i := 0; i < 40; i++ {
		long.WriteString(strings.Repeat("wxyz", 20+i) + " ")
		long.WriteString(strings.Repeat("9", 150+i) + "\n") // long, but folds to "#"
		long.WriteString("k" + strings.Repeat("zz1", 40+i) + ",")
	}
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&hex, "%x %X 0x%08x %d.%d.%d.%d\n", rng.Uint64(), rng.Uint32(), rng.Uint32(), i%256, i/256, 7, 1)
	}
	binary := make([]byte, 64<<10)
	rng.Read(binary)
	adversarial := map[string]string{
		"empty":             "",
		"shared-prefixes":   prefixes.String(),
		"long-tokens":       long.String(),
		"hex-only":          hex.String(),
		"newline-runs":      "\n\n\nalpha\n\n\n\nbeta gamma\n\n\n",
		"only-newlines":     strings.Repeat("\n", 1000),
		"no-final-newline":  "alpha beta\ngamma delta-42 final_token_1234",
		"single-token":      "abc",
		"short-tokens":      "a bb ccc dddd a bb ccc dddd e\n",
		"every-delimiter":   "a b\tc,d;e\"f(g)h[i]j=k\nl",
		"repeats":           strings.Repeat("same token same-7 token ", 2000),
		"binary":            string(binary),
		"delimiters-only":   " \t,;\"()[]= \n,,,",
		"marker-literal":    "#x# ## #1# abc#def\n",
		"overlong-repeated": strings.Repeat(strings.Repeat("q", 100)+" ", 50),
	}
	for name, blk := range adversarial {
		checkScanMatchesNaive(t, name, []byte(blk))
	}
	if !testing.Short() {
		// Random text overflows maxBlockGrams: both drop the filter.
		big := make([]byte, maxBlockGrams+maxBlockGrams/4)
		for i := range big {
			big[i] = 'g' + byte(rng.Intn(20))
		}
		checkScanMatchesNaive(t, "gram-overflow", big)
	}
}

// A token whose hash equals a remembered token's is still new unless its
// bytes are equal: a hash-only dedup would drop its grams.
func TestTokenSetComparesBytes(t *testing.T) {
	block := []byte("alpha omega alpha")
	ts := newTokenSet(0)
	const h = 42
	if !ts.insertHashed(block, 0, 5, h) {
		t.Fatal("first token not new")
	}
	if !ts.insertHashed(block, 6, 11, h) {
		t.Fatal("colliding token with different bytes reported as seen")
	}
	if ts.insertHashed(block, 12, 17, h) {
		t.Fatal("repeat of a remembered token reported as new")
	}
	if ts.n != 2 {
		t.Fatalf("set holds %d tokens, want 2", ts.n)
	}
	// Growth keeps every remembered token findable.
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "t%d ", i)
	}
	blk := []byte(sb.String())
	ts = newTokenSet(0)
	for pass := 0; pass < 2; pass++ {
		for start, i := 0, 0; i < len(blk); i++ {
			if blk[i] == ' ' {
				if got := ts.insert(blk, start, i); got != (pass == 0) {
					t.Fatalf("pass %d: token %q new = %v", pass, blk[start:i], got)
				}
				start = i + 1
			}
		}
	}
}

func TestGramSet(t *testing.T) {
	s := newGramSet(0)
	for _, h := range []uint64{0, 0, 1, 1 << 63, 0} {
		if !s.add(h) {
			t.Fatalf("add(%#x) overflowed a tiny set", h)
		}
	}
	if s.len() != 3 || !s.zero {
		t.Fatalf("len = %d zero = %v, want 3 with the zero hash", s.len(), s.zero)
	}
	// Growth: every key survives rehashing, duplicates count once.
	want := map[uint64]struct{}{0: {}, 1: {}, 1 << 63: {}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h := rng.Uint64() >> (rng.Intn(4) * 16) // some keys share low or high bits
		s.add(h)
		s.add(h)
		want[h] = struct{}{}
	}
	if !maps.Equal(gramMap(s), want) || s.len() != len(want) {
		t.Fatalf("set of %d grams differs from the %d inserted", s.len(), len(want))
	}
	if 2*s.n > len(s.slots) {
		t.Fatalf("load %d/%d above one half", s.n, len(s.slots))
	}
}

// maxBlockGrams distinct grams keep the filter; one more drops it.
func TestGramSetOverflowEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a set to maxBlockGrams")
	}
	// The zero hash is either among the kept grams or the one too many.
	for _, zeroKept := range []bool{false, true} {
		s := newGramSet(0)
		if zeroKept {
			s.add(0)
		}
		for h := uint64(1); s.len() < maxBlockGrams; h++ {
			if !s.add(h * fnvPrime64) { // odd multiplier: distinct, non-zero
				t.Fatalf("overflow at %d grams", s.len())
			}
		}
		if !s.add(fnvPrime64) {
			t.Fatal("re-adding a stored gram at the cap reported overflow")
		}
		if nbits, _, _ := buildBloom(s, 1<<20); nbits == 0 {
			t.Fatal("a set of exactly maxBlockGrams built no filter")
		}
		extra := uint64(0)
		if zeroKept {
			extra = 0xdeadbeef
		}
		if s.add(extra) {
			t.Fatalf("gram %#x past the cap did not overflow", extra)
		}
	}
}

// FuzzScanBlock: on arbitrary bytes ScanBlock digests exactly what the
// oracle does.
func FuzzScanBlock(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "alpha ERROR omega\ncode 1234 end\n", "x=1,y=22;z=333 [w] (v)",
		strings.Repeat("deadbeef ", 40), strings.Repeat("wxyz", 30) + "\n" + strings.Repeat("wxyz", 30),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		checkScanMatchesNaive(t, "fuzz", block)
	})
}

var scanSink *BlockScan

func BenchmarkScanBlock(b *testing.B) {
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		blk := loggenBlock(b, lt, 2<<20)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(blk)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanSink = ScanBlock(blk)
			}
		})
	}
}
