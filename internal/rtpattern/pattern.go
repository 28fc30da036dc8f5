package rtpattern

import "strings"

// Elem is one element of a runtime pattern: a literal or a sub-variable.
type Elem struct {
	Lit string // literal text; meaningful when Sub < 0
	Sub int    // sub-variable index, or -1 for a literal
	// Stamp of the sub-variable's values (only when Sub >= 0).
	Stamp Stamp
}

// Pattern is an extracted runtime pattern: a sequence of literals and
// sub-variables, e.g. block_<typ=1,len=1>F8<typ=5,len=4>.
type Pattern struct {
	Elems   []Elem
	NumSubs int
}

// String renders the pattern with stamps, mirroring Figure 4 of the paper.
func (p *Pattern) String() string {
	var b strings.Builder
	for _, e := range p.Elems {
		if e.Sub >= 0 {
			b.WriteByte('<')
			b.WriteString(e.Stamp.String())
			b.WriteByte('>')
		} else {
			b.WriteString(e.Lit)
		}
	}
	return b.String()
}

// Parse matches value against the pattern, returning the sub-variable
// fragments in order. An interior literal binds to its first occurrence
// after the preceding fragment (the same rule the tree-expanding splitter
// uses); a final literal binds to the value's suffix. Concatenating
// literals and fragments always reproduces the value, and Parse is the
// single source of truth for pattern membership — values it rejects go to
// the outlier capsule.
func (p *Pattern) Parse(value string) ([]string, bool) {
	subs, ok := p.AppendParse(make([]string, 0, p.NumSubs), value)
	if !ok {
		return nil, false
	}
	return subs, true
}

// AppendParse is Parse appending the fragments to dst, so a caller that
// parses a whole vector reuses one buffer. On a rejected value it returns
// false and dst with whatever fragments it appended before the mismatch.
func (p *Pattern) AppendParse(dst []string, value string) ([]string, bool) {
	n0 := len(dst)
	rest := value
	for i := 0; i < len(p.Elems); i++ {
		e := p.Elems[i]
		if e.Sub < 0 {
			// A literal not preceded by a sub-variable must be a prefix.
			if !strings.HasPrefix(rest, e.Lit) {
				return dst, false
			}
			rest = rest[len(e.Lit):]
			continue
		}
		if i == len(p.Elems)-1 {
			dst = append(dst, rest) // trailing sub takes the remainder
			rest = ""
			continue
		}
		// Construction guarantees the next element is a literal; it cuts
		// this sub-variable's fragment.
		lit := p.Elems[i+1].Lit
		var idx int
		if i+1 == len(p.Elems)-1 {
			if !strings.HasSuffix(rest, lit) {
				return dst, false
			}
			idx = len(rest) - len(lit)
		} else {
			idx = strings.Index(rest, lit)
			if idx < 0 {
				return dst, false
			}
		}
		dst = append(dst, rest[:idx])
		rest = rest[idx+len(lit):]
		i++ // the literal was consumed together with the fragment
	}
	return dst, rest == "" && len(dst)-n0 == p.NumSubs
}

// Reconstruct rebuilds a value from sub-variable fragments.
func (p *Pattern) Reconstruct(subs []string) string {
	var b strings.Builder
	for _, e := range p.Elems {
		if e.Sub >= 0 {
			b.WriteString(subs[e.Sub])
		} else {
			b.WriteString(e.Lit)
		}
	}
	return b.String()
}

// singleSub returns a degenerate pattern of one sub-variable covering the
// whole value — the fallback when no structure is found.
func singleSub() *Pattern {
	return &Pattern{Elems: []Elem{{Sub: 0}}, NumSubs: 1}
}

// DuplicationRate returns (total-unique)/total (§4.1); 0 for an empty
// vector.
func DuplicationRate(values []string) float64 {
	return dupRate(len(values), distinctCount(values))
}

// dupRate is the duplication rate of n values of which distinct are
// distinct.
func dupRate(n, distinct int) float64 {
	if n == 0 {
		return 0
	}
	return float64(n-distinct) / float64(n)
}

// distinctCount returns the number of distinct values.
func distinctCount(values []string) int {
	var d Distinct
	d.Of(values)
	return len(d.Values)
}

// isAlnum reports whether b is alphanumeric.
func isAlnum(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// longestCommonSubstring returns the longest common substring of a and b
// (first leftmost-in-a on ties).
func longestCommonSubstring(a, b string) string {
	if len(a) == 0 || len(b) == 0 {
		return ""
	}
	// DP over suffix lengths; O(len(a)*len(b)) — variable values are short.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best, bestEnd := 0, 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
					bestEnd = i
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return a[bestEnd-best : bestEnd]
}
