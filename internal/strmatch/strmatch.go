package strmatch

// BoyerMoore is a compiled Boyer–Moore searcher with both the bad-character
// and good-suffix heuristics.
type BoyerMoore struct {
	pattern    string
	badChar    [256]int
	goodSuffix []int
}

// NewBoyerMoore compiles pattern. An empty pattern matches at every position.
func NewBoyerMoore(pattern string) *BoyerMoore {
	bm := &BoyerMoore{pattern: pattern}
	m := len(pattern)
	for i := range bm.badChar {
		bm.badChar[i] = m
	}
	for i := 0; i < m-1; i++ {
		bm.badChar[pattern[i]] = m - 1 - i
	}
	bm.goodSuffix = buildGoodSuffix(pattern)
	return bm
}

func buildGoodSuffix(pattern string) []int {
	m := len(pattern)
	if m == 0 {
		return nil
	}
	shift := make([]int, m+1)
	border := make([]int, m+1)

	// Case 1: the matching suffix occurs somewhere else in the pattern.
	i, j := m, m+1
	border[i] = j
	for i > 0 {
		for j <= m && pattern[i-1] != pattern[j-1] {
			if shift[j] == 0 {
				shift[j] = j - i
			}
			j = border[j]
		}
		i--
		j--
		border[i] = j
	}
	// Case 2: only part of the matching suffix occurs at the beginning.
	j = border[0]
	for i = 0; i <= m; i++ {
		if shift[i] == 0 {
			shift[i] = j
		}
		if i == j {
			j = border[j]
		}
	}
	return shift
}

// Pattern returns the compiled pattern.
func (bm *BoyerMoore) Pattern() string { return bm.pattern }

// Index returns the first occurrence of the pattern in text at or after
// position from, or -1 if there is none.
func (bm *BoyerMoore) Index(text []byte, from int) int {
	m := len(bm.pattern)
	if m == 0 {
		if from <= len(text) {
			return from
		}
		return -1
	}
	if from < 0 {
		from = 0
	}
	s := from
	for s+m <= len(text) {
		j := m - 1
		for j >= 0 && bm.pattern[j] == text[s+j] {
			j--
		}
		if j < 0 {
			return s
		}
		bcShift := bm.badChar[text[s+j]] - (m - 1 - j)
		if bcShift < 1 {
			bcShift = 1
		}
		gsShift := bm.goodSuffix[j+1]
		if gsShift > bcShift {
			s += gsShift
		} else {
			s += bcShift
		}
	}
	return -1
}

// KMP is a compiled Knuth–Morris–Pratt searcher. LogGrep proper uses
// Boyer–Moore; KMP exists for the "w/o fixed" ablation, which must scan
// variant-length capsules where Boyer–Moore's skipping would lose track of
// the row number (paper §5.2).
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
