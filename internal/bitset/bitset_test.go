package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(0)
	if s.Any() {
		t.Fatal("empty set reports Any")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if got := s.Rows(); len(got) != 0 {
		t.Fatalf("Rows = %v, want empty", got)
	}
	var zero Set
	if zero.Any() || zero.Count() != 0 {
		t.Fatal("zero-value Set not empty")
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	if s.Test(2) || s.Test(127) {
		t.Fatal("a bit nobody set reads as set")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Set(-1)
	s.Set(10)
	s.Set(1000)
	if s.Any() {
		t.Fatal("out-of-range Set affected the set")
	}
	if s.Test(-1) || s.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestFullAndNot(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		f := NewFull(n)
		if f.Count() != n {
			t.Fatalf("NewFull(%d).Count = %d", n, f.Count())
		}
		f.Not()
		if f.Any() {
			t.Fatalf("NewFull(%d).Not() still has bits", n)
		}
		f.Not()
		if f.Count() != n {
			t.Fatalf("double Not broke count for n=%d", n)
		}
	}
}

func TestAlgebra(t *testing.T) {
	a := FromRows(100, []int{1, 5, 50, 99})
	b := FromRows(100, []int{5, 50, 60})

	and := a.Clone().And(b)
	wantRows(t, and, []int{5, 50})

	or := a.Clone().Or(b)
	wantRows(t, or, []int{1, 5, 50, 60, 99})

	diff := a.Clone().AndNot(b)
	wantRows(t, diff, []int{1, 99})
}

func wantRows(t *testing.T, s *Set, want []int) {
	t.Helper()
	got := s.Rows()
	if len(got) != len(want) {
		t.Fatalf("Rows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Rows = %v, want %v", got, want)
		}
	}
}

func TestLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(20))
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromRows(100, []int{3, 7, 11})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 7 {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestEqual(t *testing.T) {
	a := FromRows(80, []int{0, 79})
	b := FromRows(80, []int{0, 79})
	if !a.Equal(b) {
		t.Fatal("identical sets not Equal")
	}
	b.Set(40)
	if a.Equal(b) {
		t.Fatal("different sets Equal")
	}
	if a.Equal(FromRows(81, []int{0, 79})) {
		t.Fatal("different-length sets Equal")
	}
}

func TestString(t *testing.T) {
	s := FromRows(10, []int{1, 3})
	if s.String() != "{1,3}" {
		t.Fatalf("String = %q", s.String())
	}
}

// Property: De Morgan — Not(A Or B) == Not(A) And Not(B).
func TestQuickDeMorgan(t *testing.T) {
	f := func(aRows, bRows []uint16) bool {
		const n = 1 << 12
		a, b := New(n), New(n)
		for _, r := range aRows {
			a.Set(int(r) % n)
		}
		for _, r := range bRows {
			b.Set(int(r) % n)
		}
		lhs := a.Clone().Or(b).Not()
		rhs := a.Clone().Not().And(b.Clone().Not())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rows round-trips through FromRows.
func TestQuickRowsRoundTrip(t *testing.T) {
	f := func(rows []uint16) bool {
		const n = 1 << 16
		s := New(n)
		for _, r := range rows {
			s.Set(int(r))
		}
		return s.Equal(FromRows(n, s.Rows()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count(A And B) + Count(A AndNot B) == Count(A).
func TestQuickCountSplit(t *testing.T) {
	f := func(aRows, bRows []uint16, seed int64) bool {
		const n = 1 << 12
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for _, r := range aRows {
			a.Set(int(r) % n)
		}
		for _, r := range bRows {
			b.Set(int(r) % n)
		}
		for i := 0; i < 16; i++ { // extra random noise
			a.Set(rng.Intn(n))
			b.Set(rng.Intn(n))
		}
		in := a.Clone().And(b).Count()
		out := a.Clone().AndNot(b).Count()
		return in+out == a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
