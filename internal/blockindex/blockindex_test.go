package blockindex

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"loggrep/internal/query"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"ERROR", "#RROR"}, // E is a hex letter
		{"warn", "w#rn"},   // a is a hex letter
		{"zzz", "zzz"},
		{"1234", "#"},
		{"deadbeef", "#"},
		{"DEADBEEF", "#"},
		{"req-42", "r#q-#"},
		{"TraceId:3615b60b8a", "Tr#I#:#"}, // a,c,e and d are hex runs
		{"v1.2.3", "v#.#.#"},
		{"10.0.0.1:8080", "#.#.#.#:#"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeSubstringPreserved is the soundness property the postings
// section rests on: if a fragment occurs inside a token, the normalized
// fragment occurs inside the normalized token. Without it a vocabulary
// lookup could skip a block that matches.
func TestNormalizeSubstringPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("abcdefgxyz0123456789ABCDEFXYZ.:-_/+#!%")
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(24)
		tok := make([]byte, n)
		for i := range tok {
			tok[i] = alphabet[rng.Intn(len(alphabet))]
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		frag := string(tok[lo:hi])
		nt, nf := Normalize(string(tok)), Normalize(frag)
		if !strings.Contains(nt, nf) {
			t.Fatalf("normalization broke substring containment: token %q -> %q, fragment %q -> %q",
				tok, nt, frag, nf)
		}
	}
}

// TestFilterableMatchesExclusion checks the two sides of the volatile
// rule agree: a fragment the planner considers postings-filterable must
// never normalize to a shape the scanner would exclude from the
// vocabulary. (If they disagreed, a filterable fragment could hide
// inside an excluded token and the index would skip a matching block.)
func TestFilterableMatchesExclusion(t *testing.T) {
	for _, s := range []string{"", "#", "1234", "....", "1.2.3", "-", "a0f", "::"} {
		nf := Normalize(s)
		if Filterable(nf) {
			t.Errorf("%q (normal form %q) should not be filterable", s, nf)
		}
		if !pureVolatile(nf) {
			t.Errorf("%q (normal form %q) should be excluded from the vocabulary", s, nf)
		}
	}
	for _, s := range []string{"ERROR", "zz", "req-42", "x1234"} {
		nf := Normalize(s)
		if !Filterable(nf) {
			t.Errorf("%q (normal form %q) should be filterable", s, nf)
		}
	}
}

// TestBloomNoFalseNegatives: every gram inserted into a block's bloom
// must test positive — a false negative would skip a matching block.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		grams := newGramSet(0)
		for i, n := 0, 1+rng.Intn(500); i < n; i++ {
			grams.add(rng.Uint64())
		}
		// Unsaturated and budget-squeezed filters alike must hold every
		// inserted gram: the budget may only raise the false-positive
		// rate, never create a false negative.
		for _, budget := range []int{1 << 20, 64, 16} {
			nbits, k, bits := buildBloom(grams, budget)
			if nbits == 0 || k == 0 {
				t.Fatalf("non-empty gram set produced an empty bloom (budget %d)", budget)
			}
			if int(nbits) > 8*budget && nbits != 64 {
				t.Fatalf("bloom of %d bits ignored its %d-byte budget", nbits, budget)
			}
			for h := range gramMap(grams) {
				if !bloomTest(bits, nbits, k, h) {
					t.Fatalf("false negative: inserted gram %x not found (nbits=%d k=%d budget=%d)", h, nbits, k, budget)
				}
			}
		}
	}
	// Empty and nil sets mean "no filter, always admit".
	if nbits, k, bits := buildBloom(nil, 1<<20); nbits != 0 || k != 0 || bits != nil {
		t.Fatalf("nil gram set should produce no bloom, got nbits=%d k=%d", nbits, k)
	}
}

// buildIndex compresses the given raw blocks through the real scan ->
// build -> encode -> decode path and returns the decoded index plus each
// block's (lineOff, numLines) identity.
func buildIndex(t *testing.T, blocks []string) (*Index, [][2]int) {
	t.Helper()
	b := NewBuilder()
	var ids [][2]int
	lineOff := 0
	for _, raw := range blocks {
		numLines := strings.Count(raw, "\n")
		if numLines == 0 || !strings.HasSuffix(raw, "\n") {
			numLines++
		}
		b.Add(uint64(lineOff), numLines, 1<<20, ScanBlock([]byte(raw)))
		ids = append(ids, [2]int{lineOff, numLines})
		lineOff += numLines
	}
	sections := b.Sections()
	if len(blocks) > 0 && len(sections) == 0 {
		t.Fatalf("no sections emitted for %d blocks", len(blocks))
	}
	ix := DecodeSections(sections)
	if ix.ScanStats.Damaged != 0 {
		t.Fatalf("fresh sections decoded with damage: %+v", ix.ScanStats)
	}
	return ix, ids
}

func planVerdicts(t *testing.T, ix *Index, command string, ids [][2]int) (*Plan, []Verdict) {
	t.Helper()
	expr, err := query.Parse(command)
	if err != nil {
		t.Fatalf("parse %q: %v", command, err)
	}
	p := ix.NewPlan(expr)
	out := make([]Verdict, len(ids))
	for i, id := range ids {
		out[i] = p.Admits(uint64(id[0]), id[1])
	}
	return p, out
}

func TestPlanVerdicts(t *testing.T) {
	blocks := []string{
		"alpha ERROR omega\ncode 1234 end\n",
		"delta warn paths\nzeta eta\n",
		"theta iota ERROR\n",
	}
	ix, ids := buildIndex(t, blocks)
	if ix.Blooms == nil || ix.Postings == nil {
		t.Fatalf("expected both sections, got blooms=%v postings=%v", ix.Blooms != nil, ix.Postings != nil)
	}
	if ix.ScanStats.Blocks != 3 {
		t.Fatalf("Stats.Blocks = %d, want 3", ix.ScanStats.Blocks)
	}

	check := func(command string, want []Verdict, wantFilterable bool) {
		t.Helper()
		p, got := planVerdicts(t, ix, command, ids)
		if p.Filterable != wantFilterable {
			t.Fatalf("%q: Filterable = %v, want %v", command, p.Filterable, wantFilterable)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: block %d verdict = %v, want %v (all: %v)", command, i, got[i], want[i], got)
			}
		}
	}

	// Single keyword: admitted exactly where it occurs.
	check("ERROR", []Verdict{Admit, SkipPostings, Admit}, true)
	// AND of keywords living in disjoint blocks: nothing can match.
	check("ERROR AND paths", []Verdict{SkipPostings, SkipPostings, SkipPostings}, true)
	// OR admits the union.
	check("ERROR OR paths", []Verdict{Admit, Admit, Admit}, true)
	check("omega OR zeta", []Verdict{Admit, Admit, SkipPostings}, true)
	// a NOT b filters by a only; the NOT side must not skip anything.
	check("ERROR NOT omega", []Verdict{Admit, SkipPostings, Admit}, true)
	// Pure-numeric fragment: postings cannot judge it (its normal form
	// is volatile), but the raw-gram blooms can.
	check("1234", []Verdict{Admit, SkipBlooms, SkipBlooms}, true)
	// Too short for grams and volatile: not filterable, admit everything.
	check("42", []Verdict{Admit, Admit, Admit}, false)

	if p := ix.NewPlan(nil); p.Filterable {
		t.Fatalf("nil expression should not be filterable")
	}
	var nilIx *Index
	if p := nilIx.NewPlan(nil); p.Filterable || p.Admits(0, 1) != Admit {
		t.Fatalf("nil index must admit everything")
	}
}

// Blocks the index has never heard of (damage can desynchronize the
// frame table from the index) must be admitted, not skipped.
func TestPlanAdmitsUnknownBlocks(t *testing.T) {
	ix, _ := buildIndex(t, []string{"alpha ERROR omega\n"})
	p := ix.NewPlan(mustParse(t, "zzzz"))
	if !p.Filterable {
		t.Fatalf("keyword should be filterable")
	}
	if v := p.Admits(999, 7); v != Admit {
		t.Fatalf("unknown block verdict = %v, want Admit", v)
	}
}

func mustParse(t *testing.T, command string) query.Expr {
	t.Helper()
	expr, err := query.Parse(command)
	if err != nil {
		t.Fatalf("parse %q: %v", command, err)
	}
	return expr
}

// A token whose normal form exceeds the vocabulary length cap marks its
// block always-admit in the postings section; fragments of the oversized
// token must still admit the block.
func TestOverlongTokenAlwaysAdmit(t *testing.T) {
	long := strings.Repeat("wxyz", 40) // 160 bytes, no hex letters: normal form stays 160
	blocks := []string{
		"prefix " + long + " suffix\n",
		"other stuff here\n",
	}
	ix, ids := buildIndex(t, blocks)
	if ix.Postings == nil {
		t.Fatalf("postings section missing")
	}
	// "yzwx" occurs only inside the oversized token, which is absent
	// from the vocabulary — the always-admit bit must save block 0.
	p, got := planVerdicts(t, ix, "yzwx", ids)
	if !p.UsedPostings {
		t.Fatalf("expected postings to participate")
	}
	if got[0] != Admit {
		t.Fatalf("block with overlong token got verdict %v, want Admit", got[0])
	}
	if got[1] == SkipPostings {
		t.Logf("block 1 skipped by postings as expected")
	}
}

// Vocabulary overflow must drop the whole postings section (an
// incomplete one would be unsound) while keeping the blooms.
func TestVocabOverflowDropsPostings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 70k-token vocabulary")
	}
	var sb strings.Builder
	for i := 0; i < maxVocabTokens+16; i++ {
		// Letters g..z only: no hex folding, every token distinct.
		n := i
		sb.WriteString("w")
		for j := 0; j < 4; j++ {
			sb.WriteByte(byte('g' + n%20))
			n /= 20
		}
		sb.WriteString(" ")
	}
	sb.WriteString("\n")
	b := NewBuilder()
	b.Add(0, 1, 1<<20, ScanBlock([]byte(sb.String())))
	if !b.VocabOverflowed() {
		t.Fatalf("vocabulary did not overflow at %d tokens", maxVocabTokens+16)
	}
	sections := b.Sections()
	ix := DecodeSections(sections)
	if ix.Postings != nil {
		t.Fatalf("postings section present after vocabulary overflow")
	}
	if ix.Blooms == nil {
		t.Fatalf("bloom section lost with the postings")
	}
	if ix.ScanStats.Damaged != 0 {
		t.Fatalf("overflow output decoded with damage: %+v", ix.ScanStats)
	}
}

func TestScanSections(t *testing.T) {
	ix, _ := buildIndex(t, []string{"alpha beta\n", "gamma delta\n"})
	b := NewBuilder()
	b.Add(0, 1, 1<<20, ScanBlock([]byte("alpha beta\n")))
	b.Add(1, 1, 1<<20, ScanBlock([]byte("gamma delta\n")))
	sections := b.Sections()

	infos := ScanSections(sections)
	if len(infos) != 2 {
		t.Fatalf("ScanSections found %d sections, want 2", len(infos))
	}
	if infos[0].Kind != KindBlooms || infos[1].Kind != KindPostings {
		t.Fatalf("section kinds = %d,%d want %d,%d", infos[0].Kind, infos[1].Kind, KindBlooms, KindPostings)
	}
	total := 0
	for _, in := range infos {
		if !in.OK {
			t.Fatalf("fresh section %d not OK", in.Kind)
		}
		if in.Off != total {
			t.Fatalf("section %d at offset %d, want %d", in.Kind, in.Off, total)
		}
		total += in.Len
	}
	if total != len(sections) {
		t.Fatalf("sections cover %d of %d bytes", total, len(sections))
	}
	if got := ix.ScanStats.TotalBytes(); got != total {
		t.Fatalf("Stats.TotalBytes = %d, want %d", got, total)
	}
}

// Every single-byte corruption of the encoded sections must decode
// without panicking and without inventing sections; the resulting index
// may be smaller (damage) but never lies about what it decoded.
func TestDecodeSectionsCorruptionSweep(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 2, 1<<20, ScanBlock([]byte("alpha ERROR omega\ncode 1234 end\n")))
	b.Add(2, 1, 1<<20, ScanBlock([]byte("delta warn paths\n")))
	sections := b.Sections()
	clean := DecodeSections(sections)
	if clean.Blooms == nil || clean.Postings == nil || clean.ScanStats.Damaged != 0 {
		t.Fatalf("clean decode incomplete: %+v", clean.ScanStats)
	}

	for off := 0; off < len(sections); off++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), sections...)
			mut[off] ^= flip
			ix := DecodeSections(mut) // must not panic
			healthy := 0
			if ix.Blooms != nil {
				healthy++
			}
			if ix.Postings != nil {
				healthy++
			}
			if healthy+ix.ScanStats.Damaged > 2 {
				t.Fatalf("offset %d flip %#x: %d healthy + %d damaged from 2 sections",
					off, flip, healthy, ix.ScanStats.Damaged)
			}
			if healthy == 2 && ix.ScanStats.Damaged == 0 {
				// Both sections survived a byte flip: only possible if
				// CRC32C collided, which it cannot for 1-bit..8-bit
				// changes within a section. The flip must have landed
				// past both payloads — impossible here, so fail loudly.
				t.Fatalf("offset %d flip %#x: corruption undetected", off, flip)
			}
		}
	}

	// Truncation at every length: never panic, never more sections than
	// fit.
	for cut := 0; cut < len(sections); cut++ {
		ix := DecodeSections(sections[:cut])
		if ix.Blooms != nil && cut < sectionHeaderSize {
			t.Fatalf("cut %d produced a bloom section from thin air", cut)
		}
		_ = ix.Empty()
	}
}

// Decoded sections must reject payloads that disagree with their own
// framing even when the CRC is recomputed to match — the strict decoder
// is the only thing standing between a hostile tail and the query path.
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	frame := func(kind byte, payload []byte) []byte {
		return appendSection(nil, kind, payload)
	}
	cases := []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"blooms/truncated-count", KindBlooms, appendUvarint(nil, 5)},
		{"blooms/huge-count", KindBlooms, appendUvarint(nil, 1<<40)},
		{"blooms/k-without-bits", KindBlooms, func() []byte {
			p := appendUvarint(nil, 1)
			p = appendUvarint(p, 0) // lineOff
			p = appendUvarint(p, 1) // numLines
			p = appendUvarint(p, 5) // k
			p = appendUvarint(p, 0) // nbits: k!=0 with nbits==0 is invalid
			return p
		}()},
		{"blooms/trailing-garbage", KindBlooms, func() []byte {
			p := appendUvarint(nil, 0)
			return append(p, 0xEE)
		}()},
		{"postings/huge-token", KindPostings, func() []byte {
			p := appendUvarint(nil, 1)
			p = appendUvarint(p, 0)
			p = appendUvarint(p, 1)
			p = append(p, 0)                   // alwaysAdmit bitmap
			p = appendUvarint(p, 1)            // one token
			p = appendUvarint(p, 1<<30)        // absurd length
			return append(p, []byte("abc")...) // but 3 bytes
		}()},
		{"postings/duplicate-block", KindPostings, func() []byte {
			p := appendUvarint(nil, 2)
			p = appendUvarint(p, 0)
			p = appendUvarint(p, 1)
			p = appendUvarint(p, 0) // same (lineOff, numLines) again
			p = appendUvarint(p, 1)
			p = append(p, 0)        // alwaysAdmit
			p = appendUvarint(p, 0) // no tokens
			return p
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix := DecodeSections(frame(c.kind, c.payload))
			if ix.Blooms != nil || ix.Postings != nil {
				t.Fatalf("malformed payload decoded as healthy")
			}
			if ix.ScanStats.Damaged != 1 {
				t.Fatalf("Damaged = %d, want 1", ix.ScanStats.Damaged)
			}
		})
	}

	// Unknown kind and future version are skipped silently (forward
	// compatibility), not damage.
	for _, sec := range [][]byte{
		frame(99, []byte("whatever")),
		func() []byte {
			s := frame(KindBlooms, appendUvarint(nil, 0))
			s[5] = 9 // future version; re-seal the header CRC
			resealHeader(s)
			return s
		}(),
	} {
		ix := DecodeSections(sec)
		if ix.ScanStats.Damaged != 0 || ix.Blooms != nil || ix.Postings != nil {
			t.Fatalf("unknown kind/version mishandled: %+v", ix.ScanStats)
		}
	}
}

// resealHeader recomputes a section header's CRC after a deliberate
// header edit, so tests can separate "unknown but intact" from damage.
func resealHeader(s []byte) {
	h := s[:sectionHeaderSize]
	binary.LittleEndian.PutUint32(h[14:18], crc32.Checksum(h[0:14], castagnoli))
}
