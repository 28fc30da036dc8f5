package strmatch

// Delim separates values in a variant-length capsule payload. It exists for
// the "w/o fixed" ablation (paper §5.2 and §6.3): without padding, values
// need a delimiter, Boyer–Moore can no longer recover row numbers after
// skipping, and the scan falls back to KMP with delimiter counting.
const Delim = '\n'

// VarWidth searches a payload of Delim-separated values using KMP,
// tracking the current row by counting delimiters as the scan advances.
type VarWidth struct {
	buf    []byte
	starts []int // start offset of each value
}

// NewVarWidth wraps buf, whose values are separated (not terminated) by
// Delim. An empty buf holds a single empty value only if rows > 0; callers
// that need "zero rows" should pass nil and rows handling is theirs. For the
// ablation we always know the row count from metadata, so buf for n>0 rows
// has exactly n-1 delimiters.
func NewVarWidth(buf []byte, rows int) *VarWidth {
	vw := &VarWidth{buf: buf}
	if rows <= 0 {
		return vw
	}
	vw.starts = make([]int, 0, rows)
	vw.starts = append(vw.starts, 0)
	for i, b := range buf {
		if b == Delim {
			vw.starts = append(vw.starts, i+1)
		}
	}
	return vw
}

// Bytes returns the payload size a full scan examines.
func (vw *VarWidth) Bytes() int { return len(vw.buf) }

// Rows returns the number of values.
func (vw *VarWidth) Rows() int { return len(vw.starts) }

// Value returns the value of row i.
func (vw *VarWidth) Value(i int) []byte {
	start := vw.starts[i]
	end := len(vw.buf)
	if i+1 < len(vw.starts) {
		end = vw.starts[i+1] - 1
	}
	return vw.buf[start:end]
}

// ScanRows calls fn with each matching row in ascending order, using a
// single KMP pass over the delimited payload. Keywords never contain Delim,
// so a KMP hit cannot straddle two values.
func (vw *VarWidth) ScanRows(part string, kind Kind, fn func(row int) bool) {
	n := len(vw.starts)
	if n == 0 {
		return
	}
	if part == "" {
		for i := 0; i < n; i++ {
			if kind == Exact && len(vw.Value(i)) != 0 {
				continue
			}
			if !fn(i) {
				return
			}
		}
		return
	}
	k := NewKMP(part)
	row := 0
	lastRow := -1
	k.Scan(vw.buf, func(pos int) bool {
		// Advance row until pos falls inside it.
		for row+1 < n && vw.starts[row+1] <= pos {
			row++
		}
		if row == lastRow {
			return true
		}
		start := vw.starts[row]
		end := len(vw.buf)
		if row+1 < n {
			end = vw.starts[row+1] - 1
		}
		switch kind {
		case Exact:
			if pos != start || pos+len(part) != end {
				return true
			}
		case Prefix:
			if pos != start {
				return true
			}
		case Suffix:
			if pos+len(part) != end {
				return true
			}
		}
		lastRow = row
		return fn(row)
	})
}

// FindRows returns every matching row, ascending.
func (vw *VarWidth) FindRows(part string, kind Kind) []int {
	var out []int
	vw.ScanRows(part, kind, func(row int) bool {
		out = append(out, row)
		return true
	})
	return out
}
