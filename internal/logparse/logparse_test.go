package logparse

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeRoundTrip(t *testing.T) {
	lines := []string{
		"",
		"hello",
		"   ",
		"T134 bk.FF.13 read",
		"state: SUC#1604",
		"a=b, c=d;e [x] (y) \"z\"",
		"trailing space ",
		" leading",
	}
	for _, line := range lines {
		pieces := Tokenize(line)
		var b strings.Builder
		for _, p := range pieces {
			b.WriteString(p.Text)
		}
		if b.String() != line {
			t.Errorf("Tokenize(%q) does not round-trip: %q", line, b.String())
		}
		// Alternation: no two adjacent pieces of the same kind.
		for i := 1; i < len(pieces); i++ {
			if pieces[i].IsToken == pieces[i-1].IsToken {
				t.Errorf("Tokenize(%q): adjacent pieces of same kind at %d", line, i)
			}
		}
	}
}

// AppendTokenize into a buffer another line already used yields exactly
// Tokenize's pieces.
func TestAppendTokenizeReuse(t *testing.T) {
	lines := []string{"a=b, c=d;e [x] (y) \"z\"", "", "state: SUC#1604", "T134 bk.FF.13 read, and a much longer line than before"}
	var buf []Piece
	for _, line := range lines {
		buf = AppendTokenize(buf[:0], line)
		if want := Tokenize(line); !slices.Equal(buf, want) {
			t.Errorf("AppendTokenize(%q) into a reused buffer = %v, want %v", line, buf, want)
		}
	}
	if got := AppendTokenize([]Piece{{Text: "kept"}}, "x y"); len(got) != 4 || got[0].Text != "kept" {
		t.Errorf("AppendTokenize dropped or moved dst's pieces: %v", got)
	}
}

func TestQuickTokenizeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		// Restrict to printable-ish text without newlines.
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = 32 + c%95
		}
		line := string(b)
		var sb strings.Builder
		for _, p := range Tokenize(line) {
			sb.WriteString(p.Text)
		}
		return sb.String() == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureSeparatesLayouts(t *testing.T) {
	sig := func(s string) string { return Signature(Tokenize(s)) }
	if sig("a b c") != sig("x y z") {
		t.Error("same layout should share a signature")
	}
	if sig("a b c") == sig("a b c d") {
		t.Error("different token counts must not share a signature")
	}
	if sig("a b") == sig("a  b") {
		t.Error("different delimiter runs must not share a signature")
	}
	if sig("a,b") == sig("a b") {
		t.Error("different delimiter bytes must not share a signature")
	}
}

func block(lines ...string) []byte {
	return []byte(strings.Join(lines, "\n") + "\n")
}

func TestParsePaperExample(t *testing.T) {
	// Figure 1 of the paper.
	p := Parse(block(
		"T134 bk.FF.13 read",
		"T169 state: SUC#1604",
		"T179 bk.C5.15 read",
		"T181 state: ERR#1623",
	), Options{SampleRate: 1})

	if len(p.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(p.Groups))
	}
	if len(p.Outliers) != 0 {
		t.Fatalf("outliers = %v", p.Outliers)
	}
	g1, g2 := p.Groups[0], p.Groups[1]
	if g1.Template.String() != "<*> <*> read" {
		t.Errorf("template 1 = %q", g1.Template.String())
	}
	if g2.Template.String() != "<*> state: <*>" {
		t.Errorf("template 2 = %q", g2.Template.String())
	}
	if got := g1.Vars[0]; got[0] != "T134" || got[1] != "T179" {
		t.Errorf("g1 var0 = %v", got)
	}
	if got := g1.Vars[1]; got[0] != "bk.FF.13" || got[1] != "bk.C5.15" {
		t.Errorf("g1 var1 = %v", got)
	}
	if got := g2.Vars[1]; got[0] != "SUC#1604" || got[1] != "ERR#1623" {
		t.Errorf("g2 var1 = %v", got)
	}
	if g1.Lines[0] != 0 || g1.Lines[1] != 2 || g2.Lines[0] != 1 || g2.Lines[1] != 3 {
		t.Errorf("line numbers wrong: %v %v", g1.Lines, g2.Lines)
	}
}

func TestParseReconstructsEverything(t *testing.T) {
	lines := []string{
		"2021-01-04 12:33:01 INFO write to file:/tmp/1FF8ab.log",
		"2021-01-04 12:33:02 ERROR write to file:/tmp/1FF8cd.log",
		"2021-01-04 12:33:03 INFO read from blk_1832",
		"weird unstructured line !!",
		"2021-01-04 12:33:04 INFO write to file:/tmp/1FF8ef.log",
		"",
		"2021-01-04 12:33:05 WARN read from blk_1833",
	}
	p := Parse(block(lines...), Options{SampleRate: 1})
	got := ReconstructAll(p)
	if len(got) != len(lines) {
		t.Fatalf("reconstructed %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Errorf("line %d: got %q want %q", i, got[i], lines[i])
		}
	}
}

// Signature returns the static-layout key of a tokenized line.
func Signature(pieces []Piece) string { return string(appendSignature(nil, pieces)) }

// Reconstruct fills vars into the template's slots.
func (t *Template) Reconstruct(vars []string) string {
	var b strings.Builder
	for _, e := range t.Elems {
		if e.Var >= 0 {
			b.WriteString(vars[e.Var])
		} else {
			b.WriteString(e.Lit)
		}
	}
	return b.String()
}

// ReconstructAll rebuilds the full block from a Parsed, in line order.
// Exported via test only — the real reconstruction path lives in core.
func ReconstructAll(p *Parsed) []string {
	out := make([]string, p.NumLines)
	for _, g := range p.Groups {
		vals := make([]string, len(g.Vars))
		for k, lineNo := range g.Lines {
			for v := range g.Vars {
				vals[v] = g.Vars[v][k]
			}
			out[lineNo] = g.Template.Reconstruct(vals)
		}
	}
	for i, lineNo := range p.OutlierLines {
		out[lineNo] = p.Outliers[i]
	}
	return out
}

func TestParseWithSamplingStillLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var lines []string
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			lines = append(lines, fmt.Sprintf("T%d bk.%02X.%d read", rng.Intn(1000), rng.Intn(256), rng.Intn(20)))
		case 1:
			lines = append(lines, fmt.Sprintf("T%d state: %s#16%02d", rng.Intn(1000), []string{"SUC", "ERR"}[rng.Intn(2)], rng.Intn(100)))
		case 2:
			lines = append(lines, fmt.Sprintf("worker-%d finished job %d in %dms", rng.Intn(8), rng.Intn(10000), rng.Intn(500)))
		}
	}
	p := Parse(block(lines...), Options{SampleRate: 0.05})
	got := ReconstructAll(p)
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d not reconstructed: got %q want %q", i, got[i], lines[i])
		}
	}
	if len(p.Groups) == 0 || len(p.Groups) > 10 {
		t.Errorf("unexpected group count %d", len(p.Groups))
	}
}

// Unseen signatures after sampling must still parse (all-variable template).
func TestUnseenSignatureGetsTemplate(t *testing.T) {
	var lines []string
	for i := 0; i < 99; i++ {
		lines = append(lines, fmt.Sprintf("common event %d", i))
	}
	lines = append(lines, "rare layout,with,commas")
	p := Parse(block(lines...), Options{SampleRate: 0.05})
	got := ReconstructAll(p)
	if got[99] != "rare layout,with,commas" {
		t.Fatalf("rare line lost: %q", got[99])
	}
}

// An unseen level-2 variant after sampling becomes its own group, lossless.
func TestUnseenVariantStillLossless(t *testing.T) {
	lines := []string{"alpha beta", "alpha gamma"}
	p := Parse(block(lines...), Options{SampleRate: 0.5}) // stride 2: samples line 0 only
	got := ReconstructAll(p)
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d lost: %q vs %q", i, got[i], lines[i])
		}
	}
	if len(p.Outliers) != 0 {
		t.Fatalf("outliers = %v, want none", p.Outliers)
	}
}

// When a signature's variant budget overflows, templates merge; a line that
// then mismatches a merged static token must land in the outlier partition,
// not corrupt a group.
func TestStaticMismatchGoesToOutliers(t *testing.T) {
	var lines []string
	for i := 0; i < 41; i++ {
		lines = append(lines, fmt.Sprintf("evtv%c x%d end", 'A'+i, i)) // 41 distinct variants
	}
	// Line 41 is odd, so a SampleRate of 0.5 (stride 2) never samples it;
	// the sampled 21 variants exceed the budget of 16 and merge, leaving
	// "end" static — which this line violates.
	lines = append(lines, "evtZ x9 done")
	p := Parse(block(lines...), Options{SampleRate: 0.5, MaxVariants: 16})
	got := ReconstructAll(p)
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d lost: %q vs %q", i, got[i], lines[i])
		}
	}
	if len(p.Outliers) != 1 || p.Outliers[0] != "evtZ x9 done" {
		t.Fatalf("outliers = %v, want [evtZ x9 done]", p.Outliers)
	}
}

func TestDigitTokensAreVariables(t *testing.T) {
	// Even if the sample sees a single value, a token with digits must be a
	// variable so later blocks with other values parse into the same group.
	p := Parse(block("req 42 done", "req 42 done"), Options{SampleRate: 1})
	if len(p.Groups) != 1 {
		t.Fatalf("groups = %d", len(p.Groups))
	}
	tmpl := p.Groups[0].Template.String()
	if tmpl != "req <*> done" {
		t.Fatalf("template = %q, want req <*> done", tmpl)
	}
}

func TestEmptyBlock(t *testing.T) {
	p := Parse(nil, DefaultOptions())
	if p.NumLines != 0 || len(p.Groups) != 0 {
		t.Fatalf("empty block parsed oddly: %+v", p)
	}
}

func TestSplitLines(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a\n", 1},
		{"a\nb", 2},
		{"a\nb\n", 2},
		{"\n", 1},
		{"\n\n", 2},
	}
	for _, c := range cases {
		if got := len(SplitLines([]byte(c.in))); got != c.want {
			t.Errorf("SplitLines(%q) = %d lines, want %d", c.in, got, c.want)
		}
	}
}

// Property: Parse is lossless for any printable input.
func TestQuickParseLossless(t *testing.T) {
	f := func(raw []byte, rate uint8) bool {
		b := make([]byte, len(raw))
		for i, c := range raw {
			if c%13 == 0 {
				b[i] = '\n'
			} else {
				b[i] = 32 + c%95
			}
		}
		sr := float64(rate%20+1) / 20
		p := Parse(b, Options{SampleRate: sr})
		got := ReconstructAll(p)
		want := SplitLines(b)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("line %d: got %q want %q", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	var lines []string
	for i := 0; i < 20000; i++ {
		lines = append(lines, fmt.Sprintf("svc%02d %s event %d took %dms",
			rng.Intn(20), []string{"handle", "accept", "flush", "retry"}[rng.Intn(4)], rng.Intn(1e6), rng.Intn(500)))
	}
	blk := block(lines...)
	b.SetBytes(int64(len(blk)))
	for i := 0; i < b.N; i++ {
		Parse(blk, DefaultOptions())
	}
}

// Parse splits its block with splitText; it must cut exactly the lines
// SplitLines does.
func TestSplitTextMatchesSplitLines(t *testing.T) {
	for _, block := range []string{"", "\n", "\n\n", "a", "a\n", "a\n\nb", "a\nb\n\n", "\na"} {
		want := SplitLines([]byte(block))
		got := splitText(block)
		if !slices.Equal(got, want) {
			t.Errorf("splitText(%q) = %q, SplitLines says %q", block, got, want)
		}
	}
}
