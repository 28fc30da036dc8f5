package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomView returns a View of length n drawn from the three shapes a
// View takes (empty, full, partial) and the Set holding the same rows.
func randomView(rng *rand.Rand, n int) (View, *Set) {
	s := New(n)
	switch rng.Intn(4) {
	case 0:
	case 1:
		s = NewFull(n)
	default:
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
		}
	}
	return s.Clone().Freeze(), s
}

// Property: And, AndNot and Union answer what the in-place Set algebra
// answers, in every empty/full/partial combination, and never write an
// input.
func TestQuickViewAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		a, as := randomView(rng, n)
		b, bs := randomView(rng, n)
		c, cs := randomView(rng, n)
		same := func(v View, s *Set) bool { return slices.Equal(v.Rows(), s.Rows()) && v.Count() == s.Count() }

		u := NewUnion(n)
		u.Or(a)
		u.OrAnd(b, c)
		u.Or(c)
		want := as.Clone().Or(bs.Clone().And(cs)).Or(cs)
		ok := same(And(a, b), as.Clone().And(bs)) &&
			same(AndNot(a, b), as.Clone().AndNot(bs)) &&
			same(u.View(), want)
		return ok && same(a, as) && same(b, bs) && same(c, cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Freeze gives the empty and the full set their word-free form, and a
// View holding words always has a row.
func TestFreezeCanonical(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		if v := New(n).Freeze(); v.words != nil || v.full || v.Any() {
			t.Fatalf("n=%d: empty set froze to %+v", n, v)
		}
		if v := NewFull(n).Freeze(); v.words != nil || v.full != (n > 0) || v.Count() != n {
			t.Fatalf("n=%d: full set froze to %+v", n, v)
		}
	}
	a, b := FromRows(100, []int{1, 70}).Freeze(), FromRows(100, []int{2, 71}).Freeze()
	if v := And(a, b); v.words != nil || v.Any() {
		t.Fatalf("disjoint And kept words: %+v", v)
	}
	if v := AndNot(a, a); v.words != nil || v.Any() {
		t.Fatalf("AndNot of a set from itself kept words: %+v", v)
	}
}

// The empty and full sets, and answers that are one of the inputs, cost
// no allocation; a Union allocates once, when a second partial set adds to
// a first.
func TestViewAllocations(t *testing.T) {
	p, q := FromRows(256, []int{3, 200}).Freeze(), FromRows(256, []int{4, 200}).Freeze()
	free := testing.AllocsPerRun(100, func() {
		u := NewUnion(256)
		u.Or(None(256))
		u.Or(p)
		u.OrAnd(All(256), None(256))
		_ = And(And(All(256), p), All(256))
		_ = AndNot(p, None(256))
		_ = u.View()
	})
	if free != 0 {
		t.Fatalf("word-free and pass-through combinations made %.0f allocations", free)
	}
	once := testing.AllocsPerRun(100, func() {
		u := NewUnion(256)
		u.Or(p)
		u.Or(q)
		u.OrAnd(p, q)
		u.Or(p)
	})
	if once != 1 {
		t.Fatalf("a union of partial sets made %.0f allocations, want 1", once)
	}
}

func TestViewLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And of Views of different lengths did not panic")
		}
	}()
	And(All(3), None(4))
}
