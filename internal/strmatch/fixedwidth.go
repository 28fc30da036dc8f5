package strmatch

// Pad is the byte used to pad values of a Capsule to the Capsule's width.
// 0x00 cannot appear in text logs, so a keyword never contains it and a
// Boyer–Moore hit can never straddle the padding of a value (paper §5.2).
const Pad = 0x00

// Kind is the flavor of constraint a keyword part puts on a Capsule value
// during runtime-pattern matching (§5.1): the part must be the whole value,
// its prefix, its suffix, or any substring of it.
type Kind uint8

const (
	// Exact requires the value to equal the part.
	Exact Kind = iota
	// Prefix requires the value to start with the part.
	Prefix
	// Suffix requires the value to end with the part.
	Suffix
	// Substr requires the part to occur anywhere inside the value.
	Substr
)

// String returns the constraint kind name.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Prefix:
		return "prefix"
	case Suffix:
		return "suffix"
	case Substr:
		return "substr"
	}
	return "unknown"
}

// FixedWidth searches a decompressed Capsule payload: rows of exactly width
// bytes, each a value right-padded with Pad. Row lookup is O(1) — this is
// the benefit the paper buys with padding.
type FixedWidth struct {
	buf   []byte
	width int
	rows  int
}

// NewFixedWidth wraps buf, which must be rows*width bytes of width-padded
// values. A width of 0 (all values empty) yields a searcher with zero rows
// of content; use Rows to know the count in that case is also zero.
func NewFixedWidth(buf []byte, width int) *FixedWidth {
	fw := &FixedWidth{buf: buf, width: width}
	if width > 0 {
		fw.rows = len(buf) / width
	}
	return fw
}

// Rows returns the number of values.
func (fw *FixedWidth) Rows() int { return fw.rows }

// Bytes returns the payload size a full scan examines.
func (fw *FixedWidth) Bytes() int { return len(fw.buf) }

// Width returns the padded value width.
func (fw *FixedWidth) Width() int { return fw.width }

// Value returns the unpadded value of row i.
func (fw *FixedWidth) Value(i int) []byte {
	row := fw.buf[i*fw.width : (i+1)*fw.width]
	end := len(row)
	for end > 0 && row[end-1] == Pad {
		end--
	}
	return row[:end]
}

// valueLen returns the unpadded length of row i without slicing.
func (fw *FixedWidth) valueLen(i int) int {
	row := fw.buf[i*fw.width : (i+1)*fw.width]
	end := len(row)
	for end > 0 && row[end-1] == Pad {
		end--
	}
	return end
}

// FindRows returns every row whose value satisfies (kind, part), ascending.
// It scans the packed buffer once with Boyer–Moore and converts positions to
// rows by division, verifying that a hit does not cross a row boundary.
func (fw *FixedWidth) FindRows(part string, kind Kind) []int {
	var out []int
	fw.ScanRows(part, kind, func(row int) bool {
		out = append(out, row)
		return true
	})
	return out
}

// ScanRows calls fn with each matching row in ascending order; fn returning
// false stops the scan.
func (fw *FixedWidth) ScanRows(part string, kind Kind, fn func(row int) bool) {
	if fw.rows == 0 {
		return
	}
	if len(part) > fw.width {
		return // cannot fit in any value
	}
	if part == "" {
		// Every value contains/starts with/ends with the empty string;
		// Exact matches only empty values.
		for i := 0; i < fw.rows; i++ {
			if kind == Exact && fw.valueLen(i) != 0 {
				continue
			}
			if !fn(i) {
				return
			}
		}
		return
	}

	switch kind {
	case Exact, Prefix:
		// The part must sit at the start of the row: check each row head
		// directly; no scan needed.
		for i := 0; i < fw.rows; i++ {
			base := i * fw.width
			if string(fw.buf[base:base+len(part)]) != part {
				continue
			}
			if kind == Exact {
				// Value must end right after the part.
				if len(part) != fw.width && fw.buf[base+len(part)] != Pad {
					continue
				}
			}
			if !fn(i) {
				return
			}
		}
	case Suffix, Substr:
		bm := NewBoyerMoore(part)
		lastRow := -1
		for pos := bm.Index(fw.buf, 0); pos >= 0; pos = bm.Index(fw.buf, pos+1) {
			row := pos / fw.width
			if (pos+len(part)-1)/fw.width != row {
				continue // straddles a row boundary
			}
			if kind == Suffix {
				end := pos + len(part)
				if end != (row+1)*fw.width && fw.buf[end] != Pad {
					continue // not at the end of the value
				}
			}
			if row == lastRow {
				continue // report each row once
			}
			lastRow = row
			if !fn(row) {
				return
			}
		}
	}
}
