package strmatch

// KMP is a compiled Knuth–Morris–Pratt searcher. LogGrep proper scans
// fixed-length padded capsules (FixedWidth); KMP exists for the "w/o fixed"
// ablation, which must scan variant-length capsules where a skipping search
// would lose track of the row number (paper §5.2).
type KMP struct {
	pattern string
	fail    []int
}

// NewKMP compiles pattern.
func NewKMP(pattern string) *KMP {
	fail := make([]int, len(pattern))
	k := 0
	for i := 1; i < len(pattern); i++ {
		for k > 0 && pattern[i] != pattern[k] {
			k = fail[k-1]
		}
		if pattern[i] == pattern[k] {
			k++
		}
		fail[i] = k
	}
	return &KMP{pattern: pattern, fail: fail}
}

// Pattern returns the compiled pattern.
func (k *KMP) Pattern() string { return k.pattern }

// Index returns the first occurrence of the pattern in text at or after
// position from, or -1.
func (k *KMP) Index(text []byte, from int) int {
	m := len(k.pattern)
	if m == 0 {
		if from <= len(text) {
			return from
		}
		return -1
	}
	if from < 0 {
		from = 0
	}
	q := 0
	for i := from; i < len(text); i++ {
		for q > 0 && text[i] != k.pattern[q] {
			q = k.fail[q-1]
		}
		if text[i] == k.pattern[q] {
			q++
		}
		if q == m {
			return i - m + 1
		}
	}
	return -1
}

// Scan calls fn at each occurrence in text (possibly overlapping), in order.
func (k *KMP) Scan(text []byte, fn func(pos int) bool) {
	m := len(k.pattern)
	if m == 0 {
		return
	}
	q := 0
	for i := 0; i < len(text); i++ {
		for q > 0 && text[i] != k.pattern[q] {
			q = k.fail[q-1]
		}
		if text[i] == k.pattern[q] {
			q++
		}
		if q == m {
			if !fn(i - m + 1) {
				return
			}
			q = k.fail[q-1]
		}
	}
}
