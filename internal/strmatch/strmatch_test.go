package strmatch

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBoyerMooreBasic(t *testing.T) {
	cases := []struct {
		text, pat string
		want      []int
	}{
		{"hello world", "world", []int{6}},
		{"aaaa", "aa", []int{0, 1, 2}},
		{"abcabcabc", "abc", []int{0, 3, 6}},
		{"abc", "abcd", nil},
		{"", "a", nil},
		{"mississippi", "issi", []int{1, 4}},
		{"GCATCGCAGAGAGTATACAGTACG", "GCAGAGAG", []int{5}},
	}
	for _, c := range cases {
		bm := NewBoyerMoore(c.pat)
		var got []int // every occurrence, overlapping ones included
		for pos := bm.Index([]byte(c.text), 0); pos >= 0; pos = bm.Index([]byte(c.text), pos+1) {
			got = append(got, pos)
		}
		if !equalInts(got, c.want) {
			t.Errorf("BM(%q) in %q = %v, want %v", c.pat, c.text, got, c.want)
		}
	}
}

func TestBoyerMooreEmptyPattern(t *testing.T) {
	bm := NewBoyerMoore("")
	if got := bm.Index([]byte("abc"), 0); got != 0 {
		t.Fatalf("empty pattern Index = %d, want 0", got)
	}
	if got := bm.Index([]byte("abc"), 2); got != 2 {
		t.Fatalf("empty pattern Index from 2 = %d, want 2", got)
	}
	if got := bm.Index([]byte("abc"), 4); got != -1 {
		t.Fatalf("empty pattern Index past end = %d, want -1", got)
	}
}

func TestKMPBasic(t *testing.T) {
	k := NewKMP("abab")
	got := []int{}
	k.Scan([]byte("abababab"), func(p int) bool {
		got = append(got, p)
		return true
	})
	if !equalInts(got, []int{0, 2, 4}) {
		t.Fatalf("KMP scan = %v", got)
	}
	if k.Index([]byte("xxabab"), 0) != 2 {
		t.Fatal("KMP Index wrong")
	}
	if k.Index([]byte("xxabab"), 3) != -1 {
		t.Fatal("KMP Index from offset should miss")
	}
}

// Property: BM and KMP agree with bytes.Index on random inputs.
func TestQuickSearchersAgree(t *testing.T) {
	f := func(text []byte, patSeed uint32, patLen uint8) bool {
		// Draw the pattern from the text half the time to get real hits.
		rng := rand.New(rand.NewSource(int64(patSeed)))
		var pat []byte
		n := int(patLen%8) + 1
		if len(text) > 0 && rng.Intn(2) == 0 {
			start := rng.Intn(len(text))
			end := start + n
			if end > len(text) {
				end = len(text)
			}
			pat = text[start:end]
		} else {
			pat = make([]byte, n)
			for i := range pat {
				pat[i] = byte('a' + rng.Intn(4))
			}
		}
		want := bytes.Index(text, pat)
		if got := NewBoyerMoore(string(pat)).Index(text, 0); got != want {
			t.Logf("BM: text=%q pat=%q got=%d want=%d", text, pat, got, want)
			return false
		}
		if got := NewKMP(string(pat)).Index(text, 0); got != want {
			t.Logf("KMP: text=%q pat=%q got=%d want=%d", text, pat, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func padBuf(values []string, width int) []byte {
	buf := make([]byte, 0, len(values)*width)
	for _, v := range values {
		buf = append(buf, v...)
		for i := len(v); i < width; i++ {
			buf = append(buf, Pad)
		}
	}
	return buf
}

func TestFixedWidthValues(t *testing.T) {
	vals := []string{"abc", "a", "", "abcd"}
	fw := NewFixedWidth(padBuf(vals, 4), 4)
	if fw.Rows() != 4 {
		t.Fatalf("Rows = %d", fw.Rows())
	}
	for i, v := range vals {
		if string(fw.Value(i)) != v {
			t.Errorf("Value(%d) = %q, want %q", i, fw.Value(i), v)
		}
	}
}

func TestFixedWidthFindRows(t *testing.T) {
	vals := []string{"ERR", "SUCC", "ERRX", "XERR", "RRS", ""}
	fw := NewFixedWidth(padBuf(vals, 4), 4)

	cases := []struct {
		part string
		kind Kind
		want []int
	}{
		{"ERR", Exact, []int{0}},
		{"ERR", Prefix, []int{0, 2}},
		{"ERR", Suffix, []int{0, 3}},
		{"ERR", Substr, []int{0, 2, 3}},
		{"RR", Substr, []int{0, 2, 3, 4}},
		{"SUCC", Exact, []int{1}},
		{"", Exact, []int{5}},
		{"", Substr, []int{0, 1, 2, 3, 4, 5}},
		{"ZZZ", Substr, nil},
		{"TOOLONGG", Substr, nil},
	}
	for _, c := range cases {
		got := fw.FindRows(c.part, c.kind)
		if !equalInts(got, c.want) {
			t.Errorf("FindRows(%q, %v) = %v, want %v", c.part, c.kind, got, c.want)
		}
	}
}

// A hit that would only exist across a row boundary must not be reported.
func TestFixedWidthNoCrossRowHits(t *testing.T) {
	// width 4: rows "abcd", "abxy" — "cdab" appears across the boundary.
	fw := NewFixedWidth([]byte("abcdabxy"), 4)
	if got := fw.FindRows("cdab", Substr); len(got) != 0 {
		t.Fatalf("cross-row hit reported: %v", got)
	}
	if got := fw.FindRows("dabx", Substr); len(got) != 0 {
		t.Fatalf("cross-row hit reported: %v", got)
	}
}

func TestVarWidth(t *testing.T) {
	vals := []string{"ERR", "SUCC", "ERRX", "XERR", "", "RR"}
	buf := []byte(strings.Join(vals, string(rune(Delim))))
	vw := NewVarWidth(buf, len(vals))
	if vw.Rows() != len(vals) {
		t.Fatalf("Rows = %d, want %d", vw.Rows(), len(vals))
	}
	for i, v := range vals {
		if string(vw.Value(i)) != v {
			t.Errorf("Value(%d) = %q, want %q", i, vw.Value(i), v)
		}
	}
	cases := []struct {
		part string
		kind Kind
		want []int
	}{
		{"ERR", Exact, []int{0}},
		{"ERR", Prefix, []int{0, 2}},
		{"ERR", Suffix, []int{0, 3}},
		{"ERR", Substr, []int{0, 2, 3}},
		{"RR", Substr, []int{0, 2, 3, 5}},
		{"", Exact, []int{4}},
	}
	for _, c := range cases {
		got := vw.FindRows(c.part, c.kind)
		if !equalInts(got, c.want) {
			t.Errorf("VarWidth FindRows(%q, %v) = %v, want %v", c.part, c.kind, got, c.want)
		}
	}
}

// Property: FixedWidth and VarWidth agree on random value sets.
func TestQuickFixedVarAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		vals := make([]string, n)
		width := 0
		for i := range vals {
			l := rng.Intn(6)
			b := make([]byte, l)
			for j := range b {
				b[j] = byte('a' + rng.Intn(3))
			}
			vals[i] = string(b)
			if l > width {
				width = l
			}
		}
		if width == 0 {
			width = 1
		}
		fw := NewFixedWidth(padBuf(vals, width), width)
		vw := NewVarWidth([]byte(strings.Join(vals, string(rune(Delim)))), n)
		partB := make([]byte, rng.Intn(3)+1)
		for j := range partB {
			partB[j] = byte('a' + rng.Intn(3))
		}
		part := string(partB)
		for _, kind := range []Kind{Exact, Prefix, Suffix, Substr} {
			a := fw.FindRows(part, kind)
			b := vw.FindRows(part, kind)
			if !equalInts(a, b) {
				t.Logf("vals=%q part=%q kind=%v fixed=%v var=%v", vals, part, kind, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Exact: "exact", Prefix: "prefix", Suffix: "suffix", Substr: "substr", Kind(9): "unknown"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkFixedBMvsVarKMP supports §5.2's claim: fixed-length padding
// enables Boyer–Moore with row recovery by division, which beats the
// delimiter+KMP fallback the "w/o fixed" ablation uses.
func BenchmarkFixedBMvsVarKMP(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 200000
	vals := make([]string, n)
	for i := range vals {
		buf := make([]byte, 12+rng.Intn(4))
		for j := range buf {
			buf[j] = byte('A' + rng.Intn(16))
		}
		vals[i] = string(buf)
	}
	needle := vals[n/2][2:10]
	fixed := padBuf(vals, 16)
	variable := []byte(strings.Join(vals, string(rune(Delim))))

	b.Run("fixed-bm", func(b *testing.B) {
		fw := NewFixedWidth(fixed, 16)
		b.SetBytes(int64(len(fixed)))
		for i := 0; i < b.N; i++ {
			rows := 0
			fw.ScanRows(needle, Substr, func(int) bool { rows++; return true })
			if rows == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("var-kmp", func(b *testing.B) {
		b.SetBytes(int64(len(variable)))
		for i := 0; i < b.N; i++ {
			vw := NewVarWidth(variable, n)
			rows := 0
			vw.ScanRows(needle, Substr, func(int) bool { rows++; return true })
			if rows == 0 {
				b.Fatal("no hits")
			}
		}
	})
}
