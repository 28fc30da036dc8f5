package rtpattern

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeMaskOf(t *testing.T) {
	cases := []struct {
		in   string
		want uint8
	}{
		{"", 0},
		{"123", TypeDigit},
		{"abc", TypeHexLo},
		{"ABC", TypeHexUp},
		{"xyz", TypeAlphaLo},
		{"XYZ", TypeAlphaUp},
		{"/._", TypeOther},
		{"1F81F", TypeDigit | TypeHexUp},
		{"deadbeef", TypeHexLo},
		{"blk_1832", TypeHexLo | TypeAlphaLo | TypeOther | TypeDigit},
	}
	for _, c := range cases {
		if got := TypeMaskOf(c.in); got != c.want {
			t.Errorf("TypeMaskOf(%q) = %06b, want %06b", c.in, got, c.want)
		}
	}
}

func TestTypeMaskPaperExamples(t *testing.T) {
	// §4.3: "C1" contains only 0-9 → 000001b = 1.
	if got := TypeMaskOf("1"); got != 1 {
		t.Errorf("digits mask = %d, want 1", got)
	}
	// "C2" contains 0-9 and A-F → 000101b = 5.
	if got := TypeMaskOf("F8FE") | TypeMaskOf("1F"); got != 5 {
		t.Errorf("hex mask = %d, want 5", got)
	}
}

func TestTypeCount(t *testing.T) {
	if TypeCount(0) != 0 || TypeCount(0b101) != 2 || TypeCount(0b111111) != 6 {
		t.Fatal("TypeCount wrong")
	}
}

func TestStampAdmits(t *testing.T) {
	st := StampOf([]string{"1F81F", "2F8E"}) // digits + A-F, maxlen 5
	if !st.Admits("F8") || !st.Admits("12345") {
		t.Error("stamp rejects admissible parts")
	}
	if st.Admits("123456") {
		t.Error("stamp admits part longer than MaxLen")
	}
	if st.Admits("xyz") {
		t.Error("stamp admits part with absent character classes")
	}
	if st.Admits("F8_") {
		t.Error("stamp admits part with 'other' class it lacks")
	}
}

// Property: Admits is sound — if any value contains part, Admits(part) is
// true (the filter may over-approximate but never excludes a real hit).
func TestQuickStampSound(t *testing.T) {
	f := func(raw [][]byte, pick, off, l uint8) bool {
		var values []string
		for _, r := range raw {
			b := make([]byte, len(r))
			for i, c := range r {
				b[i] = 33 + c%90
			}
			values = append(values, string(b))
		}
		if len(values) == 0 {
			return true
		}
		st := StampOf(values)
		v := values[int(pick)%len(values)]
		if len(v) == 0 {
			return true
		}
		start := int(off) % len(v)
		end := start + int(l)%8 + 1
		if end > len(v) {
			end = len(v)
		}
		part := v[start:end]
		return st.Admits(part)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicationRate(t *testing.T) {
	if got := DuplicationRate(nil); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
	if got := DuplicationRate([]string{"a", "b", "c"}); got != 0 {
		t.Errorf("all-unique rate = %v", got)
	}
	if got := DuplicationRate([]string{"a", "a", "a", "a"}); got != 0.75 {
		t.Errorf("all-same rate = %v", got)
	}
	if got := DuplicationRate([]string{"a", "a", "b", "b"}); got != 0.5 {
		t.Errorf("half rate = %v", got)
	}
}

func TestCategorize(t *testing.T) {
	opts := DefaultOptions()
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("req-%04d", i)
	}
	if Categorize(ids, opts) != Real {
		t.Error("unique ids should be a real vector")
	}
	codes := make([]string, 100)
	for i := range codes {
		codes[i] = []string{"SUC", "ERR"}[i%2]
	}
	if Categorize(codes, opts) != Nominal {
		t.Error("repeated codes should be a nominal vector")
	}
	if Real.String() != "real" || Nominal.String() != "nominal" {
		t.Error("category names wrong")
	}
}

func TestPatternParseReconstruct(t *testing.T) {
	// block_<sv1>F8<sv2>
	p := &Pattern{
		Elems: []Elem{
			{Lit: "block_", Sub: -1},
			{Sub: 0},
			{Lit: "F8", Sub: -1},
			{Sub: 1},
		},
		NumSubs: 2,
	}
	cases := []struct {
		in   string
		want []string
		ok   bool
	}{
		{"block_1F81F", []string{"1", "1F"}, true},
		{"block_8F8F8FE", []string{"8", "F8FE"}, true},
		{"block_2F8E", []string{"2", "E"}, true},
		{"Failed", nil, false},
		{"block_12", nil, false}, // no F8
		{"block_F8", []string{"", ""}, true},
	}
	for _, c := range cases {
		subs, ok := p.Parse(c.in)
		if ok != c.ok {
			t.Errorf("Parse(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		for i := range c.want {
			if subs[i] != c.want[i] {
				t.Errorf("Parse(%q) = %v, want %v", c.in, subs, c.want)
				break
			}
		}
		if got := p.Reconstruct(subs); got != c.in {
			t.Errorf("Reconstruct(Parse(%q)) = %q", c.in, got)
		}
	}
}

func TestPatternFinalLiteralBindsSuffix(t *testing.T) {
	p := &Pattern{
		Elems:   []Elem{{Sub: 0}, {Lit: ".log", Sub: -1}},
		NumSubs: 1,
	}
	subs, ok := p.Parse("a.log.b.log")
	if !ok || subs[0] != "a.log.b" {
		t.Fatalf("Parse = %v %v, want [a.log.b] true", subs, ok)
	}
	if _, ok := p.Parse("a.logx"); ok {
		t.Fatal("suffix literal must anchor at the end")
	}
}

func TestExtractRealPaperExample(t *testing.T) {
	// Figure 4's shape: block_<hex>F8<hex> values with rare "Failed"
	// outliers (the 95% coverage rule tolerates them).
	rng := rand.New(rand.NewSource(9))
	var vec []string
	for i := 0; i < 300; i++ {
		if i%150 == 149 {
			vec = append(vec, "Failed")
			continue
		}
		vec = append(vec, fmt.Sprintf("block_%dF8%X", rng.Intn(10), rng.Intn(65536)))
	}
	res := ExtractReal(vec, DefaultOptions())
	if res.Pattern.NumSubs == 0 {
		t.Fatalf("no sub-variables extracted; pattern=%s", res.Pattern)
	}
	ps := res.Pattern.String()
	if !strings.HasPrefix(ps, "block_") {
		t.Errorf("pattern %q should start with block_", ps)
	}
	if len(res.Outliers) == 0 {
		t.Fatal("expected Failed outliers")
	}
	for _, o := range res.Outliers {
		if o != "Failed" {
			t.Errorf("unexpected outlier %q", o)
		}
	}
	// Every matching value reconstructs.
	for k, row := range res.MatchRows {
		subs := make([]string, res.Pattern.NumSubs)
		for s := range subs {
			subs[s] = res.Subs[s][k]
		}
		if got := res.Pattern.Reconstruct(subs); got != vec[row] {
			t.Errorf("row %d: reconstruct = %q, want %q", row, got, vec[row])
		}
	}
}

func TestExtractRealTimestampLike(t *testing.T) {
	var vec []string
	for i := 0; i < 1000; i++ {
		vec = append(vec, fmt.Sprintf("2021-01-%02d", i%28+1))
	}
	res := ExtractReal(vec, DefaultOptions())
	if len(res.Outliers) != 0 {
		t.Fatalf("outliers: %v", res.Outliers[:1])
	}
	ps := res.Pattern.String()
	if !strings.HasPrefix(ps, "2021-01-") && !strings.HasPrefix(ps, "2021-") {
		t.Errorf("pattern %q should expose the shared 2021- prefix", ps)
	}
}

func TestExtractRealNoStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var vec []string
	for i := 0; i < 500; i++ {
		b := make([]byte, 8)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		vec = append(vec, string(b))
	}
	res := ExtractReal(vec, DefaultOptions())
	// Whatever pattern came out, coverage plus outliers must account for
	// every row, and matched values must reconstruct.
	if len(res.MatchRows)+len(res.OutlierRows) != len(vec) {
		t.Fatalf("rows unaccounted: %d + %d != %d", len(res.MatchRows), len(res.OutlierRows), len(vec))
	}
	if len(res.MatchRows) < len(vec)/2 {
		t.Fatal("fallback should guarantee at least half coverage")
	}
}

func TestExtractRealEmpty(t *testing.T) {
	res := ExtractReal(nil, DefaultOptions())
	if res.Pattern == nil || len(res.MatchRows) != 0 {
		t.Fatal("empty vector mishandled")
	}
}

// Property: ExtractReal is lossless — every row is either decomposed (and
// reconstructs exactly) or preserved as an outlier.
func TestQuickExtractRealLossless(t *testing.T) {
	f := func(seed int64, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		vec := make([]string, n)
		for i := range vec {
			switch shape % 4 {
			case 0:
				vec[i] = fmt.Sprintf("/tmp/1FF8%04X.log", rng.Intn(65536))
			case 1:
				vec[i] = fmt.Sprintf("11.187.%d.%d", rng.Intn(256), rng.Intn(256))
			case 2:
				vec[i] = fmt.Sprintf("blk_%d", rng.Int63n(1e9))
			default:
				b := make([]byte, rng.Intn(12))
				for j := range b {
					b[j] = byte(33 + rng.Intn(90))
				}
				vec[i] = string(b)
			}
		}
		res := ExtractReal(vec, DefaultOptions())
		if len(res.MatchRows)+len(res.OutlierRows) != n {
			return false
		}
		for k, row := range res.MatchRows {
			subs := make([]string, res.Pattern.NumSubs)
			for s := range subs {
				subs[s] = res.Subs[s][k]
			}
			if res.Pattern.Reconstruct(subs) != vec[row] {
				t.Logf("row %d: %q != %q (pattern %s)", row, res.Pattern.Reconstruct(subs), vec[row], res.Pattern)
				return false
			}
		}
		for k, row := range res.OutlierRows {
			if res.Outliers[k] != vec[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractNominalPaperExample(t *testing.T) {
	// Figure 5: ERR#404, SUCC, ERR#501, SUCC, ERR#404, SUCC, SUCC.
	vec := []string{"ERR#404", "SUCC", "ERR#501", "SUCC", "ERR#404", "SUCC", "SUCC"}
	res := ExtractNominal(vec)

	if len(res.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(res.Patterns))
	}
	if len(res.DictValues) != 3 {
		t.Fatalf("dict = %v, want 3 values", res.DictValues)
	}
	// Dictionary values of one pattern are consecutive.
	wantDict := map[string]bool{"ERR#404": true, "ERR#501": true, "SUCC": true}
	for _, v := range res.DictValues {
		if !wantDict[v] {
			t.Errorf("unexpected dict value %q", v)
		}
	}
	// Patterns: one "ERR#<sub>" with count 2 / maxlen 7, one "SUCC"
	// constant with count 1 / maxlen 4.
	var errPat, succPat *DictPattern
	for i := range res.Patterns {
		if res.Patterns[i].Count == 2 {
			errPat = &res.Patterns[i]
		} else {
			succPat = &res.Patterns[i]
		}
	}
	if errPat == nil || succPat == nil {
		t.Fatalf("patterns = %+v", res.Patterns)
	}
	if errPat.MaxLen != 7 || succPat.MaxLen != 4 {
		t.Errorf("maxlens = %d,%d want 7,4", errPat.MaxLen, succPat.MaxLen)
	}
	if !strings.HasPrefix(errPat.Pattern.String(), "ERR#") {
		t.Errorf("ERR pattern = %q", errPat.Pattern.String())
	}
	if errPat.Pattern.NumSubs != 1 {
		t.Errorf("ERR pattern subs = %d", errPat.Pattern.NumSubs)
	}
	// The sub-variable of ERR#<*> holds only digits → type mask 1 (§4.3).
	for _, e := range errPat.Pattern.Elems {
		if e.Sub >= 0 && e.Stamp.TypeMask != TypeDigit {
			t.Errorf("ERR sub mask = %d, want %d", e.Stamp.TypeMask, TypeDigit)
		}
	}
	if succPat.Pattern.String() != "SUCC" {
		t.Errorf("SUCC pattern = %q", succPat.Pattern.String())
	}
	if res.IndexWidth != 1 {
		t.Errorf("index width = %d, want 1", res.IndexWidth)
	}
	// Index round-trip.
	for k, v := range vec {
		if res.DictValues[res.RowIndex[k]] != v {
			t.Errorf("row %d: dict[%d] = %q, want %q", k, res.RowIndex[k], res.DictValues[res.RowIndex[k]], v)
		}
	}
}

// Property: ExtractNominal indexes every row to its exact value, and all
// dictionary values of a pattern are consecutive with correct counts.
func TestQuickExtractNominalLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]string, rng.Intn(10)+1)
		for i := range pool {
			switch rng.Intn(3) {
			case 0:
				pool[i] = fmt.Sprintf("ERR#%d", rng.Intn(1000))
			case 1:
				pool[i] = fmt.Sprintf("/usr/%c/bin", 'a'+rng.Intn(26))
			default:
				pool[i] = []string{"SUCC", "FAIL", "RETRY"}[rng.Intn(3)]
			}
		}
		n := rng.Intn(200) + 1
		vec := make([]string, n)
		for i := range vec {
			vec[i] = pool[rng.Intn(len(pool))]
		}
		res := ExtractNominal(vec)
		for k, v := range vec {
			if res.RowIndex[k] < 0 || res.RowIndex[k] >= len(res.DictValues) {
				return false
			}
			if res.DictValues[res.RowIndex[k]] != v {
				return false
			}
		}
		total := 0
		pos := 0
		for _, dp := range res.Patterns {
			total += dp.Count
			for i := 0; i < dp.Count; i++ {
				v := res.DictValues[pos]
				pos++
				if len(v) > dp.MaxLen {
					return false
				}
				if _, ok := dp.Pattern.Parse(v); !ok {
					t.Logf("dict value %q does not parse under its pattern %q", v, dp.Pattern)
					return false
				}
			}
		}
		return total == len(res.DictValues)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDigitWidth(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 10: 1, 11: 2, 100: 2, 101: 3, 1001: 4}
	for n, want := range cases {
		if got := digitWidth(n); got != want {
			t.Errorf("digitWidth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"abc", "", ""},
		{"1F81F", "2F8E", "F8"},
		{"abcdef", "zcdez", "cde"},
		{"same", "same", "same"},
	}
	for _, c := range cases {
		if got := longestCommonSubstring(c.a, c.b); got != c.want {
			t.Errorf("LCS(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestPatternStringFormat(t *testing.T) {
	p := &Pattern{
		Elems: []Elem{
			{Lit: "block_", Sub: -1},
			{Sub: 0, Stamp: Stamp{TypeMask: 1, MaxLen: 1}},
			{Lit: "F8", Sub: -1},
			{Sub: 1, Stamp: Stamp{TypeMask: 5, MaxLen: 4}},
		},
		NumSubs: 2,
	}
	want := "block_<typ=1,len=1>F8<typ=5,len=4>"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Distinct agrees with a map on first-seen order and row indexes, through
// table growth, and when one Distinct serves vectors of very different
// sizes one after another.
func TestDistinctMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Distinct
	for _, n := range []int{0, 1, 5000, 3, 20000, 0, 700} {
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("v%d", rng.Intn(n/2+1))
		}
		d.Of(values)
		ids := make(map[string]int32)
		var order []string
		for k, v := range values {
			id, ok := ids[v]
			if !ok {
				id = int32(len(order))
				ids[v] = id
				order = append(order, v)
			}
			if d.Rows[k] != id {
				t.Fatalf("n=%d: row %d indexes %d, want %d", n, k, d.Rows[k], id)
			}
		}
		if !slices.Equal(d.Values, order) || len(d.Rows) != n {
			t.Fatalf("n=%d: %d distinct values and %d rows, want %d and %d", n, len(d.Values), len(d.Rows), len(order), n)
		}
	}
}
