package blockindex

import "loggrep/internal/logparse"

// Marker is the byte a maximal numeric/hex run collapses to under
// Normalize. It is a printable byte for debuggability; a literal '#' in
// raw log text merely aliases with collapsed runs, which can only cause
// extra admits, never a missed match.
const Marker = '#'

// Byte classes, one bit each in byteClass.
const (
	// clsBreak ends a token: '\n' or a logparse delimiter.
	clsBreak uint8 = 1 << iota
	// clsNumeric is the collapse class: decimal digits and hex letters of
	// either case. Runs of these bytes are what varies between instances
	// of one token shape (counters, sizes, ids, hashes, address octets),
	// so collapsing them folds the instances together.
	clsNumeric
	// clsVolatile marks the bytes of a normalized token that carry no
	// shape information beyond "some value with separators": the collapse
	// marker and the separator punctuation common inside numbers, ids,
	// IPs, paths and timestamps.
	clsVolatile
)

// byteClass classifies every byte value once, so the scan walk and
// normalization pay one table load per byte.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		b := byte(i)
		if b == '\n' || logparse.IsDelim(b) {
			t[i] |= clsBreak
		}
		if b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F' {
			t[i] |= clsNumeric
		}
		switch b {
		case Marker, '.', ':', '-', '/', '_', '+':
			t[i] |= clsVolatile
		}
	}
	return t
}()

// AppendNormalize appends tok with every maximal run of numeric/hex bytes
// collapsed to a single Marker byte. The transform is context-free, which
// gives the property the index relies on: if f is a substring of t, the
// normal form of f is a substring of the normal form of t. (The leading
// and trailing runs of f may be truncated pieces of longer runs in t, but
// a truncated run still collapses to the same single marker.)
func AppendNormalize(dst, tok []byte) []byte {
	for i := 0; i < len(tok); {
		if byteClass[tok[i]]&clsNumeric == 0 {
			dst = append(dst, tok[i])
			i++
			continue
		}
		dst = append(dst, Marker)
		for i < len(tok) && byteClass[tok[i]]&clsNumeric != 0 {
			i++
		}
	}
	return dst
}

// Normalize is AppendNormalize for a string, used to normalize query
// fragments.
func Normalize(s string) string { return string(AppendNormalize(nil, []byte(s))) }

// Filterable reports whether a normalized fragment can consult the
// postings table: it must keep at least one non-volatile byte, because
// the vocabulary deliberately omits tokens whose normal form is pure
// marker-and-separator noise (every block would post them).
func Filterable(normalized string) bool { return !pureVolatile(normalized) }

// pureVolatile reports whether every byte of a normalized token is
// volatile — such tokens (plain numbers, IPs, hex ids, timestamps) are
// excluded from the postings vocabulary. Filterable fragments can never
// hide inside them: a fragment with a non-volatile byte forces the same
// byte into any containing token's normal form.
func pureVolatile[T string | []byte](normalized T) bool {
	for i := 0; i < len(normalized); i++ {
		if byteClass[normalized[i]]&clsVolatile == 0 {
			return false
		}
	}
	return true
}
