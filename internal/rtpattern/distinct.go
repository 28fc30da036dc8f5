package rtpattern

import "hash/maphash"

// Distinct tells a variable vector's values apart in one pass: the
// distinct values in first-seen order, and for every row the index of its
// value among them. The seal runs it once per vector and reads all it
// needs of the vector's duplicates from it: the count that decides the
// category (CategorizeCount), the values its index digest is fed, and a
// nominal vector's dictionary (ExtractNominalDistinct). One Distinct
// serves vector after vector, so its tables grow to the block's largest
// vector once instead of being allocated per vector.
type Distinct struct {
	// Values are the distinct values in first-seen order.
	Values []string
	// Rows[k] is the index in Values of row k's value.
	Rows []int32
	// slots is an open-addressing table over Values, linear probing on a
	// power-of-two size: a slot holds a value's 32-bit hash above its
	// index + 1, and 0 when empty. A hash match is confirmed by comparing
	// the bytes.
	slots []uint64
	spare []uint64 // the table grow rehashes into
}

var distinctSeed = maphash.MakeSeed()

// Of replaces d's contents with the distinct values of values. The
// previous vector's Values and Rows are overwritten.
func (d *Distinct) Of(values []string) {
	d.Values = d.Values[:0]
	d.Rows = d.Rows[:0]
	// Start small: a nominal vector's few values stay in cache, and a
	// real vector's table grows to fit.
	d.reset(64)
	mask := uint64(len(d.slots) - 1)
	for _, v := range values {
		h := maphash.String(distinctSeed, v) >> 32
		i := h & mask
		for {
			s := d.slots[i]
			if s == 0 {
				id := int32(len(d.Values))
				d.slots[i] = h<<32 | uint64(id+1)
				d.Values = append(d.Values, v)
				d.Rows = append(d.Rows, id)
				if 2*len(d.Values) > len(d.slots) {
					d.grow()
					mask = uint64(len(d.slots) - 1)
				}
				break
			}
			if s>>32 == h {
				if id := int32(uint32(s) - 1); d.Values[id] == v {
					d.Rows = append(d.Rows, id)
					break
				}
			}
			i = (i + 1) & mask
		}
	}
}

// reset clears a table of n slots for a new vector.
func (d *Distinct) reset(n int) {
	if cap(d.slots) < n {
		d.slots = make([]uint64, n)
	}
	d.slots = d.slots[:n]
	clear(d.slots)
}

// grow doubles the table and reinserts the current vector's values. The
// two tables trade places, so both are reused by later vectors.
func (d *Distinct) grow() {
	n := 2 * len(d.slots)
	if cap(d.spare) < n {
		d.spare = make([]uint64, n)
	}
	next := d.spare[:n]
	clear(next)
	rehash(next, d.slots)
	d.slots, d.spare = next, d.slots
}

func rehash(dst, src []uint64) {
	mask := uint64(len(dst) - 1)
	for _, s := range src {
		if s == 0 {
			continue
		}
		i := (s >> 32) & mask
		for dst[i] != 0 {
			i = (i + 1) & mask
		}
		dst[i] = s
	}
}
