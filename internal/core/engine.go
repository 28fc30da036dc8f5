package core

import (
	"strings"

	"loggrep/internal/bitset"
	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// hole is a position in an element sequence whose per-row values live in
// Capsules (a sub-variable vector, a whole variable vector, a nominal
// dictionary+index pair, ...).
//
// find returns a read-only set sized rows(): a hole may hand out a set it
// keeps (the scan cache does), and nobody writes a result. The engine's
// own results are read-only too; its combinators copy on write.
type hole interface {
	stamp() rtpattern.Stamp
	rows() int
	find(part string, kind strmatch.Kind) (bitset.View, error)
}

// seqElem is one element of a value layout: a literal or a hole. Sequences
// never contain two adjacent holes (construction inserts literals between
// them), which the recursive matchers rely on.
type seqElem struct {
	lit string
	h   hole
}

// engine carries the cross-cutting matcher state: whether stamps filter,
// the meter of the running search (nil outside one), on which stamp
// decisions — and the store's scans, reads and line maps — are counted, and
// whether the decode-free pass (Store.narrow) is running: then a hole that
// cannot answer without a payload answers "all rows".
type engine struct {
	stamps   bool
	meter    *BudgetState
	noDecode bool
}

// admits applies the Capsule-stamp filter of §5.1 (skipped in the
// "w/o stamp" ablation). A part longer than the stamp's MaxLen can never
// occur in the Capsule regardless of stamps, but that case is also caught
// by the scans themselves; the stamp's job is to avoid the scan.
func (en *engine) admits(h hole, part string) bool {
	if part == "" {
		return true
	}
	if !en.stamps {
		return true
	}
	return en.count(h.stamp().Admits(part))
}

// admitsExact is the stamp filter for whole-value constraints, which can
// additionally prune on the minimal value length.
func (en *engine) admitsExact(h hole, part string) bool {
	if !en.stamps {
		return true
	}
	return en.count(h.stamp().AdmitsExact(part))
}

// count tallies one stamp decision and returns it.
func (en *engine) count(admit bool) bool {
	if m := en.meter; m != nil {
		if admit {
			m.own.StampAdmits++
		} else {
			m.own.StampSkips++
		}
	}
	return admit
}

// matchKind dispatches a (part, kind) constraint over a sequence of n rows.
func (en *engine) matchKind(seq []seqElem, n int, part string, kind strmatch.Kind) (bitset.View, error) {
	switch kind {
	case strmatch.Substr:
		return en.findSubstr(seq, n, part)
	case strmatch.Prefix:
		return en.prefixFrom(seq, 0, n, part, false)
	case strmatch.Exact:
		return en.prefixFrom(seq, 0, n, part, true)
	case strmatch.Suffix:
		return en.suffixFrom(seq, len(seq)-1, n, part, false)
	}
	panic("core: unknown match kind")
}

// findSubstr returns a superset-free set of rows whose value contains frag,
// implementing the sub-string algorithm of §5.1: the fragment may sit
// inside one hole, inside one literal (all rows match), or overlap a
// literal in the head / tail / body fashion, which recurses into anchored
// prefix and suffix matching on the surrounding elements.
func (en *engine) findSubstr(seq []seqElem, n int, frag string) (bitset.View, error) {
	if frag == "" {
		return bitset.All(n), nil
	}
	res := bitset.NewUnion(n)
	for i, e := range seq {
		if e.h != nil {
			if en.admits(e.h, frag) {
				sub, err := e.h.find(frag, strmatch.Substr)
				if err != nil {
					return bitset.View{}, err
				}
				res.Or(sub)
			}
			continue
		}
		L := e.lit
		if strings.Contains(L, frag) {
			return bitset.All(n), nil
		}
		// Head case: a suffix of L is a proper prefix of frag. The overlap's
		// first byte is checked before the whole of it.
		maxOverlap := min(len(L), len(frag)-1)
		for sl := 1; sl <= maxOverlap; sl++ {
			if L[len(L)-sl] != frag[0] || L[len(L)-sl:] != frag[:sl] {
				continue
			}
			sub, err := en.prefixFrom(seq, i+1, n, frag[sl:], false)
			if err != nil {
				return bitset.View{}, err
			}
			res.Or(sub)
		}
		// Tail case: a prefix of L is a proper suffix of frag; its last byte
		// is checked first.
		for pl := 1; pl <= maxOverlap; pl++ {
			if L[pl-1] != frag[len(frag)-1] || L[:pl] != frag[len(frag)-pl:] {
				continue
			}
			sub, err := en.suffixFrom(seq, i-1, n, frag[:len(frag)-pl], false)
			if err != nil {
				return bitset.View{}, err
			}
			res.Or(sub)
		}
		// Body case: L occurs strictly inside frag, at each k that
		// strings.Index finds in frag[1:len(frag)-1].
		for k := 1; k+len(L) < len(frag); k++ {
			j := strings.Index(frag[k:len(frag)-1], L)
			if j < 0 {
				break
			}
			k += j
			pre, err := en.suffixFrom(seq, i-1, n, frag[:k], false)
			if err != nil {
				return bitset.View{}, err
			}
			if !pre.Any() {
				continue
			}
			post, err := en.prefixFrom(seq, i+1, n, frag[k+len(L):], false)
			if err != nil {
				return bitset.View{}, err
			}
			res.OrAnd(pre, post)
		}
	}
	return res.View(), nil
}

// prefixFrom returns the rows whose value following seq[i:] starts with
// frag (exact=false) or equals frag (exact=true).
func (en *engine) prefixFrom(seq []seqElem, i, n int, frag string, exact bool) (bitset.View, error) {
	if frag == "" {
		if !exact {
			return bitset.All(n), nil
		}
		return en.allEmpty(seq[i:], n)
	}
	if i >= len(seq) {
		return bitset.None(n), nil
	}
	e := seq[i]
	if e.h == nil {
		L := e.lit
		if len(frag) <= len(L) {
			if exact {
				if frag == L {
					return en.allEmpty(seq[i+1:], n)
				}
				return bitset.None(n), nil
			}
			if strings.HasPrefix(L, frag) {
				return bitset.All(n), nil
			}
			return bitset.None(n), nil
		}
		if strings.HasPrefix(frag, L) {
			return en.prefixFrom(seq, i+1, n, frag[len(L):], exact)
		}
		return bitset.None(n), nil
	}

	h := e.h
	res := bitset.NewUnion(n)
	if !exact && en.admits(h, frag) {
		// The whole remaining fragment sits inside this hole's prefix.
		sub, err := h.find(frag, strmatch.Prefix)
		if err != nil {
			return bitset.View{}, err
		}
		res.Or(sub)
	}
	upper := len(frag)
	if !exact {
		upper-- // j == len(frag) is covered by the Prefix case above
	}
	if m := h.stamp().MaxLen; upper > m {
		upper = m // a hole never holds a value longer than its max length
	}
	for j := 0; j <= upper; j++ {
		part := frag[:j]
		if !en.admitsExact(h, part) {
			continue
		}
		sub, err := h.find(part, strmatch.Exact)
		if err != nil {
			return bitset.View{}, err
		}
		if !sub.Any() {
			continue
		}
		rest, err := en.prefixFrom(seq, i+1, n, frag[j:], exact)
		if err != nil {
			return bitset.View{}, err
		}
		res.OrAnd(sub, rest)
	}
	return res.View(), nil
}

// suffixFrom returns the rows whose value of seq[:i+1] ends with frag
// (exact=false) or equals frag (exact=true).
func (en *engine) suffixFrom(seq []seqElem, i, n int, frag string, exact bool) (bitset.View, error) {
	if frag == "" {
		if !exact {
			return bitset.All(n), nil
		}
		return en.allEmpty(seq[:i+1], n)
	}
	if i < 0 {
		return bitset.None(n), nil
	}
	e := seq[i]
	if e.h == nil {
		L := e.lit
		if len(frag) <= len(L) {
			if exact {
				if frag == L {
					return en.allEmpty(seq[:i], n)
				}
				return bitset.None(n), nil
			}
			if strings.HasSuffix(L, frag) {
				return bitset.All(n), nil
			}
			return bitset.None(n), nil
		}
		if strings.HasSuffix(frag, L) {
			return en.suffixFrom(seq, i-1, n, frag[:len(frag)-len(L)], exact)
		}
		return bitset.None(n), nil
	}

	h := e.h
	res := bitset.NewUnion(n)
	if !exact && en.admits(h, frag) {
		sub, err := h.find(frag, strmatch.Suffix)
		if err != nil {
			return bitset.View{}, err
		}
		res.Or(sub)
	}
	upper := len(frag)
	if !exact {
		upper--
	}
	if m := h.stamp().MaxLen; upper > m {
		upper = m
	}
	for j := 0; j <= upper; j++ {
		part := frag[len(frag)-j:]
		if !en.admitsExact(h, part) {
			continue
		}
		sub, err := h.find(part, strmatch.Exact)
		if err != nil {
			return bitset.View{}, err
		}
		if !sub.Any() {
			continue
		}
		rest, err := en.suffixFrom(seq, i-1, n, frag[:len(frag)-j], exact)
		if err != nil {
			return bitset.View{}, err
		}
		res.OrAnd(sub, rest)
	}
	return res.View(), nil
}

// allEmpty returns rows for which every element of seq is empty: literals
// must be empty strings and holes must hold empty values.
func (en *engine) allEmpty(seq []seqElem, n int) (bitset.View, error) {
	res := bitset.All(n)
	for _, e := range seq {
		if e.h == nil {
			if e.lit != "" {
				return bitset.None(n), nil
			}
			continue
		}
		if !en.admitsExact(e.h, "") {
			return bitset.None(n), nil
		}
		sub, err := e.h.find("", strmatch.Exact)
		if err != nil {
			return bitset.View{}, err
		}
		if res = bitset.And(res, sub); !res.Any() {
			return res, nil
		}
	}
	return res, nil
}
