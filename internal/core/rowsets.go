package core

import "loggrep/internal/bitset"

// rowSets is a candidate set in the structurized layout: the candidate
// rows of each group and, in the last slot, the candidate ranks in the
// block outlier capsule. A nil set is empty, and a non-nil set is not.
type rowSets struct {
	sets []*bitset.Set
}

// nonEmpty returns s, or nil when s holds no row.
func nonEmpty(s *bitset.Set) *bitset.Set {
	if s == nil || !s.Any() {
		return nil
	}
	return s
}

// noRows returns the empty candidate set.
func (st *Store) noRows() *rowSets {
	return &rowSets{sets: make([]*bitset.Set, len(st.groups)+1)}
}

// allRows returns the set of every row of the block.
func (st *Store) allRows() *rowSets {
	rs := st.noRows()
	for gi, g := range st.groups {
		rs.sets[gi] = nonEmpty(bitset.NewFull(g.n))
	}
	rs.sets[len(st.groups)] = nonEmpty(bitset.NewFull(st.box.Meta.OutlierLines.Rows()))
	return rs
}

// rowsOf returns a copy of within the caller may modify — every row of the
// block when within is nil, which is how the filter spells "unrestricted".
func (st *Store) rowsOf(within *rowSets) *rowSets {
	if within == nil {
		return st.allRows()
	}
	return within.clone()
}

// outlier returns the candidate ranks in the block outlier capsule.
func (rs *rowSets) outlier() *bitset.Set { return rs.sets[len(rs.sets)-1] }

func (rs *rowSets) clone() *rowSets {
	c := &rowSets{sets: make([]*bitset.Set, len(rs.sets))}
	for i, s := range rs.sets {
		if s != nil {
			c.sets[i] = s.Clone()
		}
	}
	return c
}

func (rs *rowSets) any() bool {
	for _, s := range rs.sets {
		if s != nil {
			return true
		}
	}
	return false
}

func (rs *rowSets) count() int {
	n := 0
	for _, s := range rs.sets {
		if s != nil {
			n += s.Count()
		}
	}
	return n
}

// or unions o into rs; o must not be used afterwards.
func (rs *rowSets) or(o *rowSets) *rowSets {
	for i, s := range o.sets {
		switch {
		case rs.sets[i] == nil:
			rs.sets[i] = s
		case s != nil:
			rs.sets[i].Or(s)
		}
	}
	return rs
}

// andNot removes o's rows from rs.
func (rs *rowSets) andNot(o *rowSets) *rowSets {
	for i, s := range o.sets {
		if rs.sets[i] != nil && s != nil {
			rs.sets[i] = nonEmpty(rs.sets[i].AndNot(s))
		}
	}
	return rs
}
