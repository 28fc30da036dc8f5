package capsule

import (
	"fmt"
	"strconv"

	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// Kind identifies what a Capsule stores.
type Kind uint8

const (
	// SubVar holds one sub-variable vector of a real variable vector.
	SubVar Kind = iota
	// Dict holds the dictionary vector of a nominal variable vector,
	// padded per runtime pattern.
	Dict
	// Index holds the index vector of a nominal variable vector as
	// fixed-width decimal strings.
	Index
	// Outlier holds values (or whole lines) that matched no pattern.
	Outlier
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case SubVar:
		return "subvar"
	case Dict:
		return "dict"
	case Index:
		return "index"
	case Outlier:
		return "outlier"
	}
	return "unknown"
}

// Info is the directory entry of one Capsule inside a CapsuleBox.
type Info struct {
	Kind  Kind
	Stamp rtpattern.Stamp
	Rows  int
	// Width is the padded value width; 0 means the payload is
	// delimiter-separated variable-length values (used by the Outlier
	// kind and by the "w/o fixed" ablation).
	Width int
	// ChunkRows is the rows-per-chunk of a chunked capsule (see
	// chunk.go); 0 means the payload compresses as one piece.
	ChunkRows int
}

// PackFixed pads each value to width with the pad byte and concatenates
// them. Values longer than width are a programming error.
func PackFixed(values []string, width int) []byte {
	buf := make([]byte, 0, len(values)*width)
	for _, v := range values {
		if len(v) > width {
			panic(fmt.Sprintf("capsule: value %q longer than width %d", v, width))
		}
		buf = append(buf, v...)
		for i := len(v); i < width; i++ {
			buf = append(buf, strmatch.Pad)
		}
	}
	return buf
}

// PackVar joins values with the variable-length delimiter. Values must not
// contain the delimiter (log lines and tokens never contain '\n').
func PackVar(values []string) []byte {
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	if n > 0 {
		n--
	}
	buf := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			buf = append(buf, strmatch.Delim)
		}
		buf = append(buf, v...)
	}
	return buf
}

// PackDict concatenates per-pattern segments: segment p holds counts[p]
// values padded to widths[p]. The caller guarantees values arrive grouped
// by pattern in pattern order — rtpattern.ExtractNominal produces exactly
// that layout. The paper's §5.2 jump uses Σ count_i × width_i offsets.
func PackDict(values []string, counts, widths []int) []byte {
	total := 0
	for p := range counts {
		total += counts[p] * widths[p]
	}
	buf := make([]byte, 0, total)
	pos := 0
	for p := range counts {
		seg := values[pos : pos+counts[p]]
		pos += counts[p]
		buf = append(buf, PackFixed(seg, widths[p])...)
	}
	if pos != len(values) {
		panic("capsule: dict counts do not cover all values")
	}
	return buf
}

// appendIndex appends idx as decimal digits zero-padded to width.
func appendIndex(dst []byte, idx, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(idx), 10)
	if idx < 0 || len(d) > width {
		panic(fmt.Sprintf("capsule: index %d overflows width %d", idx, width))
	}
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// FormatIndex renders a dictionary index as a fixed-width decimal string.
func FormatIndex(idx, width int) string {
	var buf [20]byte
	return string(appendIndex(buf[:0], idx, width))
}
