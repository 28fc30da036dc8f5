package core

import "loggrep/internal/bitset"

// rowSets is a candidate set in the structurized layout: the candidate
// rows of each group and, in the last slot, the candidate ranks in the
// block outlier capsule. Its sets are read-only Views, which it may share
// with other rowSets and with the scan cache; or and andNot replace a slot,
// never write into one.
type rowSets struct {
	sets []bitset.View
}

// noRows returns the empty candidate set.
func (st *Store) noRows() *rowSets { return st.uniformRows(bitset.None) }

// allRows returns the set of every row of the block.
func (st *Store) allRows() *rowSets { return st.uniformRows(bitset.All) }

// uniformRows returns the candidate set whose every slot is set(its rows).
func (st *Store) uniformRows(set func(n int) bitset.View) *rowSets {
	rs := &rowSets{sets: make([]bitset.View, len(st.groups)+1)}
	for gi, g := range st.groups {
		rs.sets[gi] = set(g.n)
	}
	rs.sets[len(st.groups)] = set(st.box.Meta.OutlierLines.Rows())
	return rs
}

// rowsOf returns a copy of within whose slots the caller may replace —
// every row of the block when within is nil, which is how the filter spells
// "unrestricted". The sets themselves are shared.
func (st *Store) rowsOf(within *rowSets) *rowSets {
	if within == nil {
		return st.allRows()
	}
	return &rowSets{sets: append([]bitset.View(nil), within.sets...)}
}

// outlier returns the candidate ranks in the block outlier capsule.
func (rs *rowSets) outlier() bitset.View { return rs.sets[len(rs.sets)-1] }

func (rs *rowSets) any() bool {
	for _, s := range rs.sets {
		if s.Any() {
			return true
		}
	}
	return false
}

func (rs *rowSets) count() int {
	n := 0
	for _, s := range rs.sets {
		n += s.Count()
	}
	return n
}

// or unions o into rs.
func (rs *rowSets) or(o *rowSets) *rowSets {
	for i, s := range o.sets {
		u := bitset.NewUnion(s.Len())
		u.Or(rs.sets[i])
		u.Or(s)
		rs.sets[i] = u.View()
	}
	return rs
}

// andNot removes o's rows from rs.
func (rs *rowSets) andNot(o *rowSets) *rowSets {
	for i, s := range o.sets {
		rs.sets[i] = bitset.AndNot(rs.sets[i], s)
	}
	return rs
}
