package query

import (
	"testing"

	"loggrep/internal/logparse"
)

// FuzzParse: arbitrary commands must never panic; successful parses must
// render and re-parse.
func FuzzParse(f *testing.F) {
	f.Add("error AND dst:11.8.* NOT state:503")
	f.Add(`"quoted phrase" OR (a AND b)`)
	f.Add("((")
	f.Fuzz(func(t *testing.T, cmd string) {
		e, err := Parse(cmd)
		if err != nil {
			return
		}
		if _, err := Parse(e.String()); err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", e.String(), err)
		}
	})
}

// FuzzGlobContains: the compiled matcher agrees with the naive
// backtracking oracle on every (text, pattern) pair small enough for the
// oracle, and terminates on any pair.
func FuzzGlobContains(f *testing.F) {
	f.Add("some text here", "te*t")
	f.Add("", "*")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa b", "a*a*a*b")
	f.Add("state:503 dst:11.8.42", "**:5*3 dst:11.*.4*")
	f.Fuzz(func(t *testing.T, text, pat string) {
		got := GlobContains(text, pat)
		if len(text) > 200 || len(pat) > 30 {
			return // beyond what the oracle's backtracking finishes quickly
		}
		if want := globContainsNaive(text, pat); got != want {
			t.Fatalf("GlobContains(%q, %q) = %v, oracle says %v", text, pat, got, want)
		}
	})
}

// globContainsNaive is GlobContains by backtracking: try every start, and
// at every star every length the star can take. It is the specification
// the compiled matcher is fuzzed against. Bare, that recursion is
// exponential in runs of stars ("***…*x"); memoizing it on the two
// suffix lengths keeps it polynomial without changing what it computes.
func globContainsNaive(text, pattern string) bool {
	if pattern == "" {
		return true
	}
	memo := map[[2]int]bool{}
	for i := 0; i <= len(text); i++ {
		if globHere(text[i:], pattern, memo) {
			return true
		}
	}
	return false
}

func globHere(s, p string, memo map[[2]int]bool) bool {
	key := [2]int{len(s), len(p)}
	if v, ok := memo[key]; ok {
		return v
	}
	v := globStep(s, p, memo)
	memo[key] = v
	return v
}

func globStep(s, p string, memo map[[2]int]bool) bool {
	if p == "" {
		return true
	}
	if p[0] == '*' {
		for j := 0; ; j++ {
			if globHere(s[j:], p[1:], memo) {
				return true
			}
			if j >= len(s) || logparse.IsDelim(s[j]) {
				return false
			}
		}
	}
	if s == "" || s[0] != p[0] {
		return false
	}
	return globHere(s[1:], p[1:], memo)
}
