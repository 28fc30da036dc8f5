package bitset

import (
	"fmt"
	"math/bits"
)

// View is a read-only set of rows [0, n), passed by value. The empty and
// the full set hold no words, so making either allocates nothing. A partial
// set's words are never written again by anyone, so a View may be kept,
// cached and handed to several holders at once.
//
// The combinators (And, AndNot, Union) copy on write: they return one of
// their inputs where the answer is one, and allocate words only for a
// partial set that no input already is. A View holding words always has at
// least one row, so Any costs nothing.
type View struct {
	words []uint64 // the rows of a partial set; nil for the empty and the full set
	n     int
	full  bool
}

// None returns the empty View of length n.
func None(n int) View { return View{n: max(n, 0)} }

// All returns the View of length n holding every row.
func All(n int) View {
	if n <= 0 {
		return None(n)
	}
	return View{n: n, full: true}
}

// Freeze returns a View of s's rows that shares s's words. Nothing may
// write s afterwards. An empty or full s yields the word-free View.
func (s *Set) Freeze() View {
	if !s.Any() {
		return None(s.n)
	}
	if s.Count() == s.n {
		return All(s.n)
	}
	return View{words: s.words, n: s.n}
}

// Len returns the View's length.
func (v View) Len() int { return v.n }

// Any reports whether v holds a row.
func (v View) Any() bool { return v.full || v.words != nil }

// Count returns the number of rows in v.
func (v View) Count() int {
	if v.full {
		return v.n
	}
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls fn for every row of v in ascending order, stopping early
// when fn returns false.
func (v View) ForEach(fn func(i int) bool) {
	if v.full {
		for i := 0; i < v.n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	forEach(v.words, fn)
}

// Rows returns v's rows in ascending order.
func (v View) Rows() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// word returns v's i-th word, trimmed like a Set's.
func (v View) word(i int) uint64 {
	switch {
	case v.words != nil:
		return v.words[i]
	case !v.full:
		return 0
	case i == v.n/wordBits:
		return (1 << uint(v.n%wordBits)) - 1
	}
	return ^uint64(0)
}

func (v View) checkLen(o View) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", v.n, o.n))
	}
}

// And returns the rows in both a and b. It allocates only when both are
// partial and share a row.
func And(a, b View) View {
	a.checkLen(b)
	switch {
	case !a.Any() || b.full:
		return a
	case !b.Any() || a.full:
		return b
	}
	i := firstAnd(a.words, b.words)
	if i < 0 {
		return None(a.n)
	}
	w := make([]uint64, len(a.words))
	for ; i < len(w); i++ {
		w[i] = a.words[i] & b.words[i]
	}
	return View{words: w, n: a.n}
}

// firstAnd returns the first index where a and b share a bit, or -1.
func firstAnd(a, b []uint64) int {
	for i := range a {
		if a[i]&b[i] != 0 {
			return i
		}
	}
	return -1
}

// AndNot returns the rows of a that are not in b. It allocates only when
// the answer is partial and not a itself.
func AndNot(a, b View) View {
	a.checkLen(b)
	switch {
	case !a.Any() || !b.Any():
		return a
	case b.full:
		return None(a.n)
	}
	w := make([]uint64, (a.n+wordBits-1)/wordBits)
	anyRow := uint64(0)
	for i := range w {
		w[i] = a.word(i) &^ b.words[i]
		anyRow |= w[i]
	}
	if anyRow == 0 {
		return None(a.n)
	}
	return View{words: w, n: a.n}
}

// Union accumulates the union of Views. It hands back its first partial
// input as it is and allocates words of its own only when a second one
// adds rows; later inputs are ORed into those words in place.
type Union struct {
	v     View
	owned bool // v.words belong to the Union and may be written
}

// NewUnion returns an empty Union of length n.
func NewUnion(n int) Union { return Union{v: None(n)} }

// View returns the union so far. The Union must not be used afterwards.
func (u *Union) View() View { return u.v }

// Or adds o's rows.
func (u *Union) Or(o View) {
	u.v.checkLen(o)
	switch {
	case u.v.full || !o.Any():
	case o.full || !u.v.Any():
		u.v, u.owned = o, false
	default:
		w := u.own()
		for i, x := range o.words {
			w[i] |= x
		}
	}
}

// OrAnd adds the rows in both a and b, without materializing their
// intersection unless the union is still empty.
func (u *Union) OrAnd(a, b View) {
	a.checkLen(b)
	switch {
	case !a.Any() || !b.Any():
		u.v.checkLen(a)
	case a.full:
		u.Or(b)
	case b.full:
		u.Or(a)
	case !u.v.Any():
		u.v.checkLen(a)
		u.v, u.owned = And(a, b), true
	case !u.v.full:
		u.v.checkLen(a)
		i := firstAnd(a.words, b.words)
		if i < 0 {
			return
		}
		w := u.own()
		for ; i < len(w); i++ {
			w[i] |= a.words[i] & b.words[i]
		}
	}
}

// own returns the union's words, copying them first if an input owns them.
func (u *Union) own() []uint64 {
	if !u.owned {
		w := make([]uint64, len(u.v.words))
		copy(w, u.v.words)
		u.v.words, u.owned = w, true
	}
	return u.v.words
}
