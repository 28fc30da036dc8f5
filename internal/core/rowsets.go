package core

import "loggrep/internal/bitset"

// rowSets is a candidate set in the structurized layout, kept sparse: the
// slots that hold a candidate, in ascending order. Slot gi < len(groups)
// holds group gi's candidate rows, slot len(groups) the candidate ranks in
// the block outlier capsule, and a slot not listed holds none, so a slot
// the filter never enters costs nothing. The sets are read-only Views,
// which a rowSets may share with other rowSets and with the scan cache;
// or and andNot build a new list, never write into one.
type rowSets struct {
	slots []slotRows
}

// slotRows is one listed slot: never an empty set.
type slotRows struct {
	slot int
	rows bitset.View
}

// add lists slot with rows, unless rows is empty. Slots are added in
// ascending order.
func (rs *rowSets) add(slot int, rows bitset.View) {
	if rows.Any() {
		rs.slots = append(rs.slots, slotRows{slot: slot, rows: rows})
	}
}

// allRows returns the set of every row of the block.
func (st *Store) allRows() *rowSets {
	rs := &rowSets{slots: make([]slotRows, 0, len(st.groups)+1)}
	for gi, g := range st.groups {
		rs.add(gi, bitset.All(g.n))
	}
	rs.add(len(st.groups), bitset.All(st.box.Meta.OutlierLines.Rows()))
	return rs
}

// rowsOf returns within, or every row of the block when within is nil,
// which is how the filter spells "unrestricted".
func (st *Store) rowsOf(within *rowSets) *rowSets {
	if within == nil {
		return st.allRows()
	}
	return within
}

func (rs *rowSets) any() bool { return len(rs.slots) > 0 }

func (rs *rowSets) count() int {
	n := 0
	for _, s := range rs.slots {
		n += s.rows.Count()
	}
	return n
}

// or returns the union of rs and o.
func (rs *rowSets) or(o *rowSets) *rowSets {
	out := &rowSets{slots: make([]slotRows, 0, len(rs.slots)+len(o.slots))}
	a, b := rs.slots, o.slots
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].slot < b[0].slot:
			out.slots, a = append(out.slots, a[0]), a[1:]
		case b[0].slot < a[0].slot:
			out.slots, b = append(out.slots, b[0]), b[1:]
		default:
			u := bitset.NewUnion(a[0].rows.Len())
			u.Or(a[0].rows)
			u.Or(b[0].rows)
			out.slots, a, b = append(out.slots, slotRows{slot: a[0].slot, rows: u.View()}), a[1:], b[1:]
		}
	}
	out.slots = append(append(out.slots, a...), b...)
	return out
}

// andNot returns the rows of rs that are not in o.
func (rs *rowSets) andNot(o *rowSets) *rowSets {
	out := &rowSets{slots: make([]slotRows, 0, len(rs.slots))}
	b := o.slots
	for _, s := range rs.slots {
		for len(b) > 0 && b[0].slot < s.slot {
			b = b[1:]
		}
		if len(b) > 0 && b[0].slot == s.slot {
			s.rows = bitset.AndNot(s.rows, b[0].rows)
		}
		out.add(s.slot, s.rows)
	}
	return out
}
