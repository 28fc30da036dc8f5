package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"loggrep/internal/bitset"
)

func TestParsePaperQuery(t *testing.T) {
	// §3: "error AND dst:11.8.* NOT state:503"
	e, err := Parse("error AND dst:11.8.* NOT state:503")
	if err != nil {
		t.Fatal(err)
	}
	want := "((error AND dst:11.8.*) AND (NOT state:503))"
	if e.String() != want {
		t.Fatalf("parsed %q, want %q", e.String(), want)
	}
	ss := Searches(e)
	if len(ss) != 3 {
		t.Fatalf("searches = %d", len(ss))
	}
	if ss[1].Keywords[0] != "dst:11.8.*" {
		t.Fatalf("keyword = %q", ss[1].Keywords[0])
	}
	if len(ss[1].Fragments) != 1 || ss[1].Fragments[0] != "dst:11.8." {
		t.Fatalf("fragments = %v", ss[1].Fragments)
	}
}

func TestParsePhrases(t *testing.T) {
	// Table 1 (Log I): "WARNING and 2019-11-06 07"
	e, err := Parse("WARNING and 2019-11-06 07")
	if err != nil {
		t.Fatal(err)
	}
	ss := Searches(e)
	if len(ss) != 2 {
		t.Fatalf("searches = %v", ss)
	}
	if ss[1].Raw != "2019-11-06 07" {
		t.Fatalf("phrase = %q", ss[1].Raw)
	}
	if len(ss[1].Keywords) != 2 {
		t.Fatalf("keywords = %v", ss[1].Keywords)
	}
}

func TestParseOrNotParens(t *testing.T) {
	e, err := Parse("(a OR b) AND NOT c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((a OR b) AND (NOT c))" {
		t.Fatalf("parsed %q", e.String())
	}
	// Precedence: AND binds tighter than OR.
	e, err = Parse("a OR b AND c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a OR (b AND c))" {
		t.Fatalf("parsed %q", e.String())
	}
	// Leading NOT.
	e, err = Parse("NOT a")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(NOT a)" {
		t.Fatalf("parsed %q", e.String())
	}
}

func TestParseCaseInsensitiveOperators(t *testing.T) {
	e, err := Parse("ERROR and UserId:-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*And); !ok {
		t.Fatalf("lowercase and not an operator: %q", e.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "AND", "a AND", "(a", "a)", "a OR", "NOT", "a ( b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestGlobContains(t *testing.T) {
	cases := []struct {
		text, pat string
		want      bool
	}{
		{"error dst:11.8.42 ok", "dst:11.8.*", true},
		{"error dst:11.9.42 ok", "dst:11.8.*", false},
		{"abc", "", true},
		{"abc", "abc", true},
		{"xabcx", "abc", true},
		{"abc", "a*c", true},
		{"a c", "a*c", false},  // '*' must not cross a delimiter
		{"ab,c", "a*c", false}, // ',' is a delimiter too
		{"aXYc", "a*c", true},
		{"foo.log", "*.log", true},
		{"foo.txt", "*.log", false},
		{"state:503", "state:5*3", true},
		{"state:513", "state:5*3", true},
		{"state:53", "state:5*3", true},
		{"prefix state:503 suffix", "state:503", true},
	}
	for _, c := range cases {
		if got := GlobContains(c.text, c.pat); got != c.want {
			t.Errorf("GlobContains(%q, %q) = %v, want %v", c.text, c.pat, got, c.want)
		}
	}
}

// Property: for wildcard-free patterns, GlobContains == strings.Contains.
func TestQuickGlobPlain(t *testing.T) {
	f := func(rawText, rawPat []byte) bool {
		text := printable(rawText)
		pat := printable(rawPat)
		if len(pat) > 6 {
			pat = pat[:6]
		}
		pat = strings.ReplaceAll(pat, "*", "x")
		return GlobContains(text, pat) == strings.Contains(text, pat)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func printable(raw []byte) string {
	b := make([]byte, len(raw))
	for i, c := range raw {
		b[i] = 32 + c%95
	}
	return string(b)
}

func TestMatchEntryVerifiesPhrase(t *testing.T) {
	s := NewSearch("write to file:/tmp/1FF8*.log")
	if !s.MatchEntry("INFO write to file:/tmp/1FF8ab.log done") {
		t.Error("phrase should match")
	}
	if s.MatchEntry("INFO write to file:/tmp/2FF8ab.log done") {
		t.Error("phrase should not match")
	}
	// Fragments must all be wildcard-free and present in the phrase.
	for _, f := range s.Fragments {
		if strings.Contains(f, "*") {
			t.Errorf("fragment %q contains wildcard", f)
		}
	}
}

// TestExprMatch pins the exact matcher the verify loop, RawQuery and the
// ingest raw-tail scan all call, one row per node kind.
func TestExprMatch(t *testing.T) {
	cases := []struct {
		cmd, entry string
		want       bool
	}{
		{"ERROR", "x ERROR y", true},
		{"ERROR", "x WARN y", false},
		{"ERROR AND state:5*", "ERROR state:503", true},
		{"ERROR AND state:5*", "ERROR state:404", false},
		{"ERROR OR WARN", "x WARN y", true},
		{"ERROR OR WARN", "x INFO y", false},
		{"NOT INFO", "x WARN y", true},
		{"NOT INFO", "x INFO y", false},
		{"(ERROR OR WARN) AND NOT retry", "WARN retry later", false},
		{"(ERROR OR WARN) AND NOT retry", "WARN gave up", true},
	}
	for _, c := range cases {
		e, err := Parse(c.cmd)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Match(c.entry); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.cmd, c.entry, got, c.want)
		}
	}
}

func TestEval(t *testing.T) {
	e, err := Parse("a AND b NOT c")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]*bitset.Set{
		"a": bitset.FromRows(8, []int{0, 1, 2, 3}),
		"b": bitset.FromRows(8, []int{1, 2, 3, 4}),
		"c": bitset.FromRows(8, []int{2}),
	}
	got := Eval(e, 8, func(s *Search) *bitset.Set { return sets[s.Raw].Clone() })
	want := bitset.FromRows(8, []int{1, 3})
	if !got.Equal(want) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestEvalOrNot(t *testing.T) {
	e, err := Parse("NOT a OR b")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]*bitset.Set{
		"a": bitset.FromRows(4, []int{0, 1}),
		"b": bitset.FromRows(4, []int{1}),
	}
	got := Eval(e, 4, func(s *Search) *bitset.Set { return sets[s.Raw].Clone() })
	want := bitset.FromRows(4, []int{1, 2, 3})
	if !got.Equal(want) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestParseQuotedPhrases(t *testing.T) {
	e, err := Parse(`"error AND out" NOT "state: 503"`)
	if err != nil {
		t.Fatal(err)
	}
	ss := Searches(e)
	if len(ss) != 2 {
		t.Fatalf("searches = %v", ss)
	}
	if ss[0].Raw != "error AND out" {
		t.Fatalf("phrase 0 = %q", ss[0].Raw)
	}
	if ss[1].Raw != "state: 503" {
		t.Fatalf("phrase 1 = %q", ss[1].Raw)
	}
	// Double spacing inside quotes is preserved (unquoted phrases
	// normalize it away).
	e, err = Parse(`"two  spaces"`)
	if err != nil {
		t.Fatal(err)
	}
	if Searches(e)[0].Raw != "two  spaces" {
		t.Fatalf("spacing lost: %q", Searches(e)[0].Raw)
	}
	if _, err := Parse(`"unterminated`); err == nil {
		t.Fatal("unterminated quote accepted")
	}
}

func TestQuotedOperatorWords(t *testing.T) {
	// Quoting lets the user search for the literal words AND / OR / NOT.
	e, err := Parse(`"AND"`)
	if err != nil {
		t.Fatal(err)
	}
	s := Searches(e)
	if len(s) != 1 || s[0].Raw != "AND" {
		t.Fatalf("searches = %v", s)
	}
}

// Property: the compiled matcher agrees with the backtracking oracle on
// short texts and patterns over a small alphabet with delimiters, where
// stars, repeats and near-misses are dense.
func TestGlobMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(alphabet string, n int) string {
		b := make([]byte, rng.Intn(n+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		text, pat := draw("ab .", 24), draw("ab.* ", 8)
		if got, want := GlobContains(text, pat), globContainsNaive(text, pat); got != want {
			t.Fatalf("GlobContains(%q, %q) = %v, oracle says %v", text, pat, got, want)
		}
	}
}

// BenchmarkGlobContains times the exact matcher, compiled once as a
// search's MatchEntry is, on a log line: a literal phrase, one star, and
// a*a*a*b against a 200-byte delimiter-free token it does not match — where
// a backtracking matcher's cost grows with the fourth power of the token.
func BenchmarkGlobContains(b *testing.B) {
	line := "2021-01-04 07:12:55.123 INFO blk_-4258993373224213718 Receiving block src: /10.250.19.102:54106 dest: /10.250.19.102:50010"
	cases := []struct{ name, text, pat string }{
		{"literal", line, "dest: /10.250.19.102:50010"},
		{"one-star", line, "src: /10.250.*:54106"},
		{"a*a*a*b", strings.Repeat("a", 200) + " b", "a*a*a*b"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := NewSearch(c.pat)
			b.SetBytes(int64(len(c.text)))
			for i := 0; i < b.N; i++ {
				s.MatchEntry(c.text)
			}
		})
	}
}
