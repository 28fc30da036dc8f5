package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bitmap over rows [0, Len).
// The zero value is an empty set of length 0.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty Set able to hold n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a Set of length n with every bit set.
func NewFull(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// FromRows builds a Set of length n with the given rows set.
// Rows outside [0, n) are ignored.
func FromRows(n int, rows []int) *Set {
	s := New(n)
	for _, r := range rows {
		s.Set(r)
	}
	return s
}

// trim clears bits beyond n in the last word so Count and equality work.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%wordBits)) - 1
	}
}

// Len returns the capacity (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set sets bit i. Out-of-range indexes are ignored.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// And intersects s with o in place and returns s. Lengths must match.
func (s *Set) And(o *Set) *Set {
	s.checkLen(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// Or unions o into s in place and returns s. Lengths must match.
func (s *Set) Or(o *Set) *Set {
	s.checkLen(o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
	return s
}

// AndNot removes o's bits from s in place and returns s. Lengths must match.
func (s *Set) AndNot(o *Set) *Set {
	s.checkLen(o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
	return s
}

// Not complements s in place and returns s.
func (s *Set) Not() *Set {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
	return s
}

func (s *Set) checkLen(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", s.n, o.n))
	}
}

// Rows returns all set bit indexes in ascending order.
func (s *Set) Rows() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Equal reports whether s and o have the same length and the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the set as a compact row list, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
