package core

import (
	"loggrep/internal/bitset"
	"loggrep/internal/capsule"
	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// searcher abstracts fixed-width and variable-length capsule payloads.
type searcher interface {
	Rows() int
	Bytes() int
	Value(i int) []byte
	ScanRows(part string, kind strmatch.Kind, fn func(row int) bool)
}

// capsuleHole exposes one Capsule as a hole; its row space is the
// Capsule's own rows.
type capsuleHole struct {
	st *Store
	id int
}

func (c *capsuleHole) stamp() rtpattern.Stamp {
	return c.st.box.Meta.Capsules[c.id].Stamp
}

func (c *capsuleHole) rows() int { return c.st.box.Meta.Capsules[c.id].Rows }

func (c *capsuleHole) find(part string, kind strmatch.Kind) (*bitset.Set, error) {
	// The split enumeration of §5.1 asks the same (capsule, part, kind)
	// question along many possible matches; cache scans per store.
	key := findKey{id: c.id, kind: kind, part: part}
	if cached, ok := c.st.findCache[key]; ok {
		c.st.stats.scanCacheHits++
		return cached.Clone(), nil
	}
	if err := c.st.checkpoint(); err != nil {
		return nil, err
	}
	sr, err := c.st.searcher(c.id)
	if err != nil {
		return nil, err
	}
	c.st.scanned(sr.Bytes())
	set := bitset.New(c.rows())
	sr.ScanRows(part, kind, func(row int) bool {
		set.Set(row)
		return true
	})
	c.st.findCache[key] = set
	return set.Clone(), nil
}

// realVarHole is a variable vector stored with a single runtime pattern:
// an inner element sequence over the matched rows plus an optional outlier
// Capsule. Its row space is the group's rows. (LogGrep-SP vectors are the
// degenerate case: one sub-variable covering the whole value.)
type realVarHole struct {
	st      *Store
	vm      *capsule.VarMeta
	n       int // group rows
	inner   []seqElem
	innerN  int   // rows of the inner sequence (matched values)
	matched []int // matched rank -> group row (lazy)
	stampV  rtpattern.Stamp
}

func newRealVarHole(st *Store, vm *capsule.VarMeta, groupRows int) *realVarHole {
	h := &realVarHole{st: st, vm: vm, n: groupRows, innerN: groupRows - len(vm.OutRows)}
	litLen := 0
	for _, e := range vm.Pattern {
		if e.Sub < 0 {
			h.inner = append(h.inner, seqElem{lit: e.Lit})
			h.stampV.TypeMask |= rtpattern.TypeMaskOf(e.Lit)
			litLen += len(e.Lit)
		} else {
			h.inner = append(h.inner, seqElem{h: &capsuleHole{st: st, id: e.CapID}})
			h.stampV.TypeMask |= e.Stamp.TypeMask
			h.stampV.MaxLen += e.Stamp.MaxLen
			h.stampV.MinLen += e.Stamp.MinLen
		}
	}
	h.stampV.MaxLen += litLen
	h.stampV.MinLen += litLen
	if vm.OutCapID >= 0 {
		os := st.box.Meta.Capsules[vm.OutCapID].Stamp
		h.stampV.TypeMask |= os.TypeMask
		if os.MaxLen > h.stampV.MaxLen {
			h.stampV.MaxLen = os.MaxLen
		}
		if os.MinLen < h.stampV.MinLen {
			h.stampV.MinLen = os.MinLen
		}
	}
	return h
}

func (h *realVarHole) stamp() rtpattern.Stamp { return h.stampV }
func (h *realVarHole) rows() int              { return h.n }

// matchedRows lazily builds the matched-rank → group-row mapping.
func (h *realVarHole) matchedRows() []int {
	if h.matched != nil || h.innerN == h.n {
		return h.matched // nil means identity when there are no outliers
	}
	h.matched = make([]int, 0, h.innerN)
	oi := 0
	for row := 0; row < h.n; row++ {
		if oi < len(h.vm.OutRows) && h.vm.OutRows[oi] == row {
			oi++
			continue
		}
		h.matched = append(h.matched, row)
	}
	return h.matched
}

func (h *realVarHole) find(part string, kind strmatch.Kind) (*bitset.Set, error) {
	out := bitset.New(h.n)
	inner, err := h.st.en.matchKind(h.inner, h.innerN, part, kind)
	if err != nil {
		return nil, err
	}
	if m := h.matchedRows(); m == nil {
		out.Or(inner)
	} else {
		inner.ForEach(func(rank int) bool {
			out.Set(m[rank])
			return true
		})
	}
	if h.vm.OutCapID >= 0 {
		oc := &capsuleHole{st: h.st, id: h.vm.OutCapID}
		if h.st.en.admits(oc, part) {
			os, err := oc.find(part, kind)
			if err != nil {
				return nil, err
			}
			os.ForEach(func(rank int) bool {
				out.Set(h.vm.OutRows[rank])
				return true
			})
		}
	}
	return out, nil
}

// nominalVarHole is a variable vector stored as a dictionary Capsule plus
// an index Capsule (Figure 5). Matching first locates dictionary values via
// the per-pattern runtime patterns (with count/length stamps enabling a
// direct jump to each pattern's padded segment), then searches the index
// Capsule only for the dictionary ids that actually matched — skipping the
// index scan entirely when the dictionary has no hit (§5.1).
type nominalVarHole struct {
	st *Store
	vm *capsule.VarMeta
	n  int
}

func (h *nominalVarHole) stamp() rtpattern.Stamp {
	return h.st.box.Meta.Capsules[h.vm.DictCapID].Stamp
}

func (h *nominalVarHole) rows() int { return h.n }

func (h *nominalVarHole) find(part string, kind strmatch.Kind) (*bitset.Set, error) {
	dictIdxs, err := h.findDict(part, kind)
	if err != nil {
		return nil, err
	}
	out := bitset.New(h.n)
	if len(dictIdxs) == 0 {
		return out, nil
	}
	idxSr, err := h.st.searcher(h.vm.IndexCapID)
	if err != nil {
		return nil, err
	}
	if len(dictIdxs) <= 8 {
		// Few dictionary hits: one Boyer–Moore pass per index id.
		for _, di := range dictIdxs {
			if err := h.st.checkpoint(); err != nil {
				return nil, err
			}
			key := capsule.FormatIndex(di, h.vm.IndexWidth)
			h.st.scanned(idxSr.Bytes())
			idxSr.ScanRows(key, strmatch.Exact, func(row int) bool {
				out.Set(row)
				return true
			})
		}
		return out, nil
	}
	// Many hits: one membership pass over the index capsule beats
	// len(dictIdxs) separate scans.
	if err := h.st.checkpoint(); err != nil {
		return nil, err
	}
	h.st.scanned(idxSr.Bytes())
	dictRows := h.st.box.Meta.Capsules[h.vm.DictCapID].Rows
	member := bitset.FromRows(dictRows, dictIdxs)
	for row := 0; row < idxSr.Rows(); row++ {
		idx := parseDecimal(idxSr.Value(row))
		if member.Test(idx) {
			out.Set(row)
		}
	}
	return out, nil
}

// parseDecimal reads a non-negative fixed-width decimal; index entries are
// always digits by construction.
func parseDecimal(b []byte) int {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		v = v*10 + int(c-'0')
	}
	return v
}

// findDict returns the dictionary positions whose value satisfies
// (part, kind), scanning only the segments of feasible patterns.
func (h *nominalVarHole) findDict(part string, kind strmatch.Kind) ([]int, error) {
	var dictIdxs []int
	if h.st.padding {
		w, err := h.st.walkDict(h.vm)
		if err != nil {
			return nil, err
		}
		for w.next() {
			if !h.feasible(*w.dp, part, kind) {
				continue
			}
			if err := h.st.checkpoint(); err != nil {
				return nil, err
			}
			h.st.scanned(len(w.seg))
			base := w.base
			strmatch.NewFixedWidth(w.seg, w.width).ScanRows(part, kind, func(row int) bool {
				dictIdxs = append(dictIdxs, base+row)
				return true
			})
		}
		if err := w.err(); err != nil {
			return nil, err
		}
		return dictIdxs, nil
	}
	// Unpadded ("w/o fixed"): one variable-length scan over the whole
	// dictionary; per-pattern jumps are impossible without fixed lengths.
	if err := h.st.checkpoint(); err != nil {
		return nil, err
	}
	sr, err := h.st.searcher(h.vm.DictCapID)
	if err != nil {
		return nil, err
	}
	h.st.scanned(sr.Bytes())
	sr.ScanRows(part, kind, func(row int) bool {
		dictIdxs = append(dictIdxs, row)
		return true
	})
	return dictIdxs, nil
}

// feasible structurally matches (part, kind) against a dictionary runtime
// pattern using only literals and sub-variable stamps — no data access.
// It reuses the recursive matcher with 1-row stamp-only holes.
func (h *nominalVarHole) feasible(dp capsule.DictPatternMeta, part string, kind strmatch.Kind) bool {
	seq := make([]seqElem, 0, len(dp.Elems))
	for _, e := range dp.Elems {
		if e.Sub < 0 {
			seq = append(seq, seqElem{lit: e.Lit})
		} else {
			seq = append(seq, seqElem{h: &stampHole{s: e.Stamp, en: &h.st.en}})
		}
	}
	res, err := h.st.en.matchKind(seq, 1, part, kind)
	if err != nil {
		return true // never filter on an internal error
	}
	return res.Any()
}

// stampHole is a 1-row data-free hole whose find answers "could a value
// with this stamp satisfy the constraint". With stamps disabled (the
// "w/o stamp" ablation) it is always permissive.
type stampHole struct {
	s  rtpattern.Stamp
	en *engine
}

func (s *stampHole) stamp() rtpattern.Stamp { return s.s }
func (s *stampHole) rows() int              { return 1 }

func (s *stampHole) find(part string, kind strmatch.Kind) (*bitset.Set, error) {
	if !s.en.stamps {
		return bitset.NewFull(1), nil
	}
	ok := s.s.Admits(part)
	if kind == strmatch.Exact {
		ok = s.s.AdmitsExact(part)
	}
	if part == "" && kind != strmatch.Exact {
		ok = true
	}
	if ok {
		return bitset.NewFull(1), nil
	}
	return bitset.New(1), nil
}
