package rtpattern

import "fmt"

// Type-mask bits (§2.2 of the paper): six bits recording which character
// classes a value set contains.
const (
	TypeDigit   uint8 = 1 << 0 // 0-9
	TypeHexLo   uint8 = 1 << 1 // a-f
	TypeHexUp   uint8 = 1 << 2 // A-F
	TypeAlphaLo uint8 = 1 << 3 // g-z
	TypeAlphaUp uint8 = 1 << 4 // G-Z
	TypeOther   uint8 = 1 << 5 // anything else
)

// TypeAll is the mask with every class present: folding more bytes into
// it changes nothing.
const TypeAll = TypeDigit | TypeHexLo | TypeHexUp | TypeAlphaLo | TypeAlphaUp | TypeOther

// classTable holds the type bit of every byte value.
var classTable = func() (t [256]uint8) {
	for i := range t {
		switch b := byte(i); {
		case b >= '0' && b <= '9':
			t[i] = TypeDigit
		case b >= 'a' && b <= 'f':
			t[i] = TypeHexLo
		case b >= 'A' && b <= 'F':
			t[i] = TypeHexUp
		case b >= 'g' && b <= 'z':
			t[i] = TypeAlphaLo
		case b >= 'G' && b <= 'Z':
			t[i] = TypeAlphaUp
		default:
			t[i] = TypeOther
		}
	}
	return t
}()

// ClassOf returns the type bit of a single byte.
func ClassOf(b byte) uint8 { return classTable[b] }

// TypeMaskOf returns the union of class bits over all bytes of s.
func TypeMaskOf[T string | []byte](s T) uint8 {
	var m uint8
	for i := 0; i < len(s); i++ {
		m |= classTable[s[i]]
	}
	return m
}

// TypeCount returns the number of distinct character classes in mask —
// the "types of characters" statistic from §2.2/§2.3.
func TypeCount(mask uint8) int {
	n := 0
	for b := mask; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// Stamp is a Capsule stamp (§4.3): the type mask and the maximal length of
// the values in a Capsule. During query, a keyword part can only occur in
// the Capsule if its own mask is a subset of the stamp's (K&C=K) and it is
// no longer than MaxLen.
//
// MinLen extends the paper's stamp with the minimal value length. The
// paper observes that values of one sub-variable vector have similar
// lengths (§2.3); recording the lower bound exploits that observation to
// prune exact-match constraints whose part is too short, which collapses
// the split enumeration of §5.1 for fixed-width sub-variables.
type Stamp struct {
	TypeMask uint8
	MaxLen   int
	MinLen   int
}

// StampOf computes the stamp of a value set.
func StampOf(values []string) Stamp {
	var st Stamp
	for i, v := range values {
		st.TypeMask |= TypeMaskOf(v)
		if len(v) > st.MaxLen {
			st.MaxLen = len(v)
		}
		if i == 0 || len(v) < st.MinLen {
			st.MinLen = len(v)
		}
	}
	return st
}

// Add folds one more value into the stamp (call on a stamp built by
// StampOf or track emptiness separately; a zero Stamp treats MinLen 0 as
// "empty values possible", which is conservative and safe).
func (st *Stamp) Add(v string) {
	st.TypeMask |= TypeMaskOf(v)
	if len(v) > st.MaxLen {
		st.MaxLen = len(v)
	}
	if len(v) < st.MinLen {
		st.MinLen = len(v)
	}
}

// AdmitsExact reports whether a whole value equal to part could exist in
// the Capsule: the length must be within [MinLen, MaxLen] and every
// character class present.
func (st Stamp) AdmitsExact(part string) bool {
	if len(part) < st.MinLen || len(part) > st.MaxLen {
		return false
	}
	k := TypeMaskOf(part)
	return k&st.TypeMask == k
}

// Admits reports whether a keyword part could possibly occur as a substring
// of some value in a Capsule with this stamp. This is the filter of §5.1:
// every character class of the part must appear in the Capsule and the part
// must fit within the maximal length.
func (st Stamp) Admits(part string) bool {
	if len(part) > st.MaxLen {
		return false
	}
	k := TypeMaskOf(part)
	return k&st.TypeMask == k
}

// String renders the stamp like the paper's examples: "typ=5,len=4".
func (st Stamp) String() string {
	return fmt.Sprintf("typ=%d,len=%d", st.TypeMask, st.MaxLen)
}
