package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"loggrep/internal/bitset"
	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// memHole is a test hole backed by an in-memory value slice.
type memHole struct {
	vals []string
	st   rtpattern.Stamp
}

func newMemHole(vals ...string) *memHole {
	return &memHole{vals: vals, st: rtpattern.StampOf(vals)}
}

func (m *memHole) stamp() rtpattern.Stamp { return m.st }
func (m *memHole) rows() int              { return len(m.vals) }

func (m *memHole) find(part string, kind strmatch.Kind) (bitset.View, error) {
	set := bitset.New(len(m.vals))
	for i, v := range m.vals {
		ok := false
		switch kind {
		case strmatch.Exact:
			ok = v == part
		case strmatch.Prefix:
			ok = strings.HasPrefix(v, part)
		case strmatch.Suffix:
			ok = strings.HasSuffix(v, part)
		case strmatch.Substr:
			ok = strings.Contains(v, part)
		}
		if ok {
			set.Set(i)
		}
	}
	return set.Freeze(), nil
}

// values renders row i of a sequence.
func seqValue(seq []seqElem, row int) string {
	var b strings.Builder
	for _, e := range seq {
		if e.h == nil {
			b.WriteString(e.lit)
		} else {
			b.WriteString(e.h.(*memHole).vals[row])
		}
	}
	return b.String()
}

// oracleRows computes the expected rows for (part, kind) by brute force.
func oracleRows(seq []seqElem, n int, part string, kind strmatch.Kind) []int {
	var out []int
	for row := 0; row < n; row++ {
		v := seqValue(seq, row)
		ok := false
		switch kind {
		case strmatch.Exact:
			ok = v == part
		case strmatch.Prefix:
			ok = strings.HasPrefix(v, part)
		case strmatch.Suffix:
			ok = strings.HasSuffix(v, part)
		case strmatch.Substr:
			ok = strings.Contains(v, part)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

func checkEngine(t *testing.T, seq []seqElem, n int, part string, kind strmatch.Kind) {
	t.Helper()
	en := &engine{stamps: true}
	got, err := en.matchKind(seq, n, part, kind)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRows(seq, n, part, kind)
	gotRows := got.Rows()
	if len(gotRows) != len(want) {
		t.Fatalf("matchKind(%q, %v) = %v, want %v", part, kind, gotRows, want)
	}
	for i := range want {
		if gotRows[i] != want[i] {
			t.Fatalf("matchKind(%q, %v) = %v, want %v", part, kind, gotRows, want)
		}
	}
}

func TestEnginePaperFigure6(t *testing.T) {
	// Figure 6: pattern block_<sv1>F8<sv2> with <sv1> {typ=1,len=1} and
	// <sv2> {typ=5,len=4}; keyword "8F8F".
	sv1 := newMemHole("1", "8", "2", "9", "8")
	sv2 := newMemHole("1F", "F8FE", "E", "8F8F", "F8F8")
	seq := []seqElem{
		{lit: "block_"},
		{h: sv1},
		{lit: "F8"},
		{h: sv2},
	}
	// Values: block_11FF8... let's enumerate via the oracle.
	checkEngine(t, seq, 5, "8F8F", strmatch.Substr)
	checkEngine(t, seq, 5, "F8", strmatch.Substr)
	checkEngine(t, seq, 5, "block_8F8", strmatch.Prefix)
	checkEngine(t, seq, 5, "FE", strmatch.Suffix)
	checkEngine(t, seq, 5, "block_1F81F", strmatch.Exact)
	checkEngine(t, seq, 5, "zzz", strmatch.Substr)
}

func TestEngineAllKindsOnLiteralOnlySeq(t *testing.T) {
	seq := []seqElem{{lit: "hello world"}}
	for _, kind := range []strmatch.Kind{strmatch.Exact, strmatch.Prefix, strmatch.Suffix, strmatch.Substr} {
		checkEngine(t, seq, 3, "hello world", kind)
		checkEngine(t, seq, 3, "o w", kind)
		checkEngine(t, seq, 3, "hello", kind)
		checkEngine(t, seq, 3, "world", kind)
		checkEngine(t, seq, 3, "nope", kind)
	}
}

func TestEngineEmptyValues(t *testing.T) {
	h := newMemHole("", "x", "")
	seq := []seqElem{{lit: "a"}, {h: h}, {lit: "b"}}
	checkEngine(t, seq, 3, "ab", strmatch.Exact)  // rows with empty hole
	checkEngine(t, seq, 3, "axb", strmatch.Exact) // row with "x"
	checkEngine(t, seq, 3, "ab", strmatch.Substr)
	checkEngine(t, seq, 3, "", strmatch.Substr)
}

func TestEngineKeywordSpanningThreeElements(t *testing.T) {
	// keyword covers suffix of hole1 + lit + prefix of hole2.
	h1 := newMemHole("abc", "abd", "xbc")
	h2 := newMemHole("123", "124", "923")
	seq := []seqElem{{h: h1}, {lit: "--"}, {h: h2}}
	checkEngine(t, seq, 3, "bc--12", strmatch.Substr)
	checkEngine(t, seq, 3, "c--1", strmatch.Substr)
	checkEngine(t, seq, 3, "d--12", strmatch.Substr)
	checkEngine(t, seq, 3, "abc--123", strmatch.Exact)
	checkEngine(t, seq, 3, "--", strmatch.Substr)
}

// The stamp filter must never exclude a real match (soundness) even though
// it may allow extra scans.
func TestEngineStampSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := "ab1F_./"
	randVal := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(6) + 1
		var seq []seqElem
		numElems := rng.Intn(4) + 1
		for e := 0; e < numElems; e++ {
			// Never adjacent holes: the builders guarantee literals
			// separate them and the engine relies on that invariant.
			if rng.Intn(2) == 0 || (len(seq) > 0 && seq[len(seq)-1].h != nil && rng.Intn(2) == 0) {
				seq = append(seq, seqElem{lit: randVal(rng.Intn(3) + 1)})
				continue
			}
			if len(seq) > 0 && seq[len(seq)-1].h != nil {
				seq = append(seq, seqElem{lit: randVal(rng.Intn(3) + 1)})
			}
			vals := make([]string, n)
			for i := range vals {
				vals[i] = randVal(rng.Intn(4))
			}
			seq = append(seq, seqElem{h: newMemHole(vals...)})
		}
		// Draw the part from a real row value so matches exist.
		full := seqValue(seq, rng.Intn(n))
		if full == "" {
			continue
		}
		a := rng.Intn(len(full))
		b := a + rng.Intn(len(full)-a) + 1
		part := full[a:b]
		kind := strmatch.Kind(rng.Intn(4))
		if kind == strmatch.Exact {
			part = full
		}
		if kind == strmatch.Prefix {
			part = full[:b]
		}
		if kind == strmatch.Suffix {
			part = full[a:]
		}
		checkEngine(t, seq, n, part, kind)
	}
}

// Property: engine output equals brute force for random sequences, both
// with and without stamps.
func TestQuickEngineMatchesOracle(t *testing.T) {
	f := func(seed int64, stamps bool) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := "abF1."
		randVal := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		n := rng.Intn(8) + 1
		var seq []seqElem
		for e := 0; e < rng.Intn(5)+1; e++ {
			if rng.Intn(3) == 0 {
				seq = append(seq, seqElem{lit: randVal(rng.Intn(3) + 1)})
				continue
			}
			if len(seq) > 0 && seq[len(seq)-1].h != nil {
				// No adjacent holes (builder invariant).
				seq = append(seq, seqElem{lit: randVal(rng.Intn(3) + 1)})
			}
			vals := make([]string, n)
			for i := range vals {
				vals[i] = randVal(rng.Intn(4))
			}
			seq = append(seq, seqElem{h: newMemHole(vals...)})
		}
		part := randVal(rng.Intn(4) + 1)
		kind := strmatch.Kind(rng.Intn(4))
		en := &engine{stamps: stamps}
		got, err := en.matchKind(seq, n, part, kind)
		if err != nil {
			return false
		}
		want := oracleRows(seq, n, part, kind)
		gotRows := got.Rows()
		if len(gotRows) != len(want) {
			t.Logf("seq rows=%d part=%q kind=%v got=%v want=%v", n, part, kind, gotRows, want)
			for r := 0; r < n; r++ {
				t.Logf("  row %d = %q", r, seqValue(seq, r))
			}
			return false
		}
		for i := range want {
			if gotRows[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAdjacentHolesWouldBreak(t *testing.T) {
	// Construction never emits adjacent holes; this documents the
	// invariant by showing the builder output has none.
	lt := fmt.Sprintf
	_ = lt
	block := []byte("a 1x2 b\na 3y4 b\na 5z6 b\n")
	data := Compress(block, DefaultOptions())
	st, err := Open(data, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range st.groups {
		for i := 1; i < len(g.seq); i++ {
			if g.seq[i].h != nil && g.seq[i-1].h != nil {
				t.Fatal("adjacent holes in template sequence")
			}
		}
		for _, e := range g.seq {
			if rv, ok := e.h.(*realVarHole); ok {
				for i := 1; i < len(rv.inner); i++ {
					if rv.inner[i].h != nil && rv.inner[i-1].h != nil {
						t.Fatal("adjacent holes in runtime pattern sequence")
					}
				}
			}
		}
	}
}
