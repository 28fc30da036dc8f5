package query

import (
	"fmt"
	"strings"

	"loggrep/internal/bitset"
	"loggrep/internal/logparse"
)

// Expr is a parsed query expression tree.
type Expr interface {
	// String renders the expression in canonical form.
	String() string
	// Match evaluates the expression against one entry's text with the
	// exact semantics; the filtering path may only over-approximate it.
	Match(entry string) bool
}

// And matches entries satisfying both operands.
type And struct{ L, R Expr }

// Or matches entries satisfying either operand.
type Or struct{ L, R Expr }

// Not matches entries not satisfying the operand.
type Not struct{ X Expr }

// Search is a leaf search string.
type Search struct {
	// Raw is the phrase as written (single-space normalized).
	Raw string
	// Keywords are the phrase's tokens; each may contain '*'.
	Keywords []string
	// Fragments are the wildcard-free pieces of every keyword — the units
	// the filtering machinery looks for. All must occur in an entry for
	// it to be a candidate.
	Fragments []string
}

// String renders the expression fully parenthesized.
func (a *And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }

// String renders the expression fully parenthesized.
func (o *Or) String() string { return "(" + o.L.String() + " OR " + o.R.String() + ")" }

// String renders the expression fully parenthesized.
func (n *Not) String() string { return "(NOT " + n.X.String() + ")" }

// String renders the phrase, quoting it when spacing or an operator word
// would make the bare text re-parse differently.
func (s *Search) String() string {
	up := strings.ToUpper(s.Raw)
	if strings.ContainsAny(s.Raw, " \t()") || up == "AND" || up == "OR" || up == "NOT" {
		return `"` + s.Raw + `"`
	}
	return s.Raw
}

// NewSearch builds a Search leaf from a phrase.
func NewSearch(phrase string) *Search {
	s := &Search{Raw: phrase}
	for _, p := range logparse.Tokenize(phrase) {
		if !p.IsToken {
			continue
		}
		s.Keywords = append(s.Keywords, p.Text)
		for _, frag := range strings.Split(p.Text, "*") {
			if frag != "" {
				s.Fragments = append(s.Fragments, frag)
			}
		}
	}
	return s
}

// Match reports whether both operands match entry.
func (a *And) Match(entry string) bool { return a.L.Match(entry) && a.R.Match(entry) }

// Match reports whether either operand matches entry.
func (o *Or) Match(entry string) bool { return o.L.Match(entry) || o.R.Match(entry) }

// Match reports whether the operand does not match entry.
func (n *Not) Match(entry string) bool { return !n.X.Match(entry) }

// Match is MatchEntry: a leaf matches when its phrase occurs in entry.
func (s *Search) Match(entry string) bool { return s.MatchEntry(entry) }

// MatchEntry reports whether the phrase occurs in entry, with '*' matching
// any run of non-delimiter characters. This is the exact semantics; the
// filtering path may only over-approximate it.
func (s *Search) MatchEntry(entry string) bool {
	return GlobContains(entry, s.Raw)
}

// GlobContains reports whether pattern occurs as a substring of text,
// where '*' in pattern matches any (possibly empty) run of non-delimiter
// characters.
func GlobContains(text, pattern string) bool {
	if pattern == "" {
		return true
	}
	for i := 0; i <= len(text); i++ {
		if globHere(text[i:], pattern) {
			return true
		}
	}
	return false
}

func globHere(s, p string) bool {
	for {
		if p == "" {
			return true
		}
		if p[0] == '*' {
			for j := 0; ; j++ {
				if globHere(s[j:], p[1:]) {
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
		s, p = s[1:], p[1:]
	}
}

// Parse parses a query command. Operators are the case-insensitive words
// AND, OR and NOT with the usual precedence NOT > AND > OR; "a NOT b"
// means "a AND NOT b"; parentheses group. Runs of non-operator words form
// one search phrase ("WARNING and 2019-11-06 07" has phrases "WARNING"
// and "2019-11-06 07").
func Parse(command string) (Expr, error) {
	toks, err := lex(command)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("query: unexpected %q", p.peek())
	}
	return e, nil
}

// Canonical returns the parser's normalized rendering of a command —
// fully parenthesized, operators uppercased, phrase spacing collapsed —
// so different spellings of the same logical query ("a and b", "A AND
// b", "(a AND b)") compare equal. An unparsable command canonicalizes
// to itself: the caller wanted a display/grouping key, not an error.
// The live-ops inflight view uses it to group retries of one logical
// query across spellings.
func Canonical(command string) string {
	e, err := Parse(command)
	if err != nil {
		return command
	}
	return e.String()
}

type token struct {
	kind string // "AND", "OR", "NOT", "(", ")", "WORD"
	text string
}

func lex(command string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(command) {
		switch c := command[i]; {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')':
			toks = append(toks, token{kind: string(c)})
			i++
		case c == '"':
			// A quoted phrase is one atom with its spacing preserved,
			// exempt from operator interpretation: "error AND out".
			end := strings.IndexByte(command[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("query: unterminated quote")
			}
			if end == 0 {
				return nil, fmt.Errorf("query: empty quoted phrase")
			}
			toks = append(toks, token{kind: "PHRASE", text: command[i+1 : i+1+end]})
			i += end + 2
		default:
			j := i
			for j < len(command) && command[j] != ' ' && command[j] != '\t' &&
				command[j] != '(' && command[j] != ')' && command[j] != '"' {
				j++
			}
			word := command[i:j]
			switch strings.ToUpper(word) {
			case "AND", "OR", "NOT":
				toks = append(toks, token{kind: strings.ToUpper(word)})
			default:
				toks = append(toks, token{kind: "WORD", text: word})
			}
			i = j
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("query: empty command")
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.done() {
		return "<end>"
	}
	t := p.toks[p.pos]
	if t.kind == "WORD" {
		return t.text
	}
	return t.kind
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for !p.done() && p.toks[p.pos].kind == "OR" {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for !p.done() {
		switch p.toks[p.pos].kind {
		case "AND":
			p.pos++
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &And{L: l, R: r}
		case "NOT":
			p.pos++
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &And{L: l, R: &Not{X: r}}
		default:
			return l, nil
		}
	}
	return l, nil
}

func (p *parser) parseFactor() (Expr, error) {
	if p.done() {
		return nil, fmt.Errorf("query: expression ends after operator")
	}
	switch p.toks[p.pos].kind {
	case "NOT":
		p.pos++
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	case "(":
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.done() || p.toks[p.pos].kind != ")" {
			return nil, fmt.Errorf("query: missing closing parenthesis")
		}
		p.pos++
		return e, nil
	case "PHRASE":
		s := NewSearch(p.toks[p.pos].text)
		p.pos++
		return s, nil
	case "WORD":
		var words []string
		for !p.done() && p.toks[p.pos].kind == "WORD" {
			words = append(words, p.toks[p.pos].text)
			p.pos++
		}
		return NewSearch(strings.Join(words, " ")), nil
	default:
		return nil, fmt.Errorf("query: unexpected %q", p.peek())
	}
}

// Eval evaluates an expression over n entries, calling leaf for each
// Search; NOT complements within [0, n).
func Eval(e Expr, n int, leaf func(*Search) *bitset.Set) *bitset.Set {
	switch x := e.(type) {
	case *And:
		return Eval(x.L, n, leaf).And(Eval(x.R, n, leaf))
	case *Or:
		return Eval(x.L, n, leaf).Or(Eval(x.R, n, leaf))
	case *Not:
		return Eval(x.X, n, leaf).Not()
	case *Search:
		return leaf(x)
	}
	panic(fmt.Sprintf("query: unknown node %T", e))
}

// SelectivityHint estimates how selective an expression is for plan
// ordering: the length of the longest fragment the expression requires.
// Longer fragments are rarer (CLP queries its "obscurest" keyword first
// for the same reason), so AND planners evaluate the higher-hint side
// first and short-circuit when it comes up empty. An AND requires its
// strongest child's fragments (max); an OR only guarantees its weakest
// child's (min); a NOT requires nothing (0). The hint carries no
// soundness weight — it only orders work.
func SelectivityHint(e Expr) int {
	switch x := e.(type) {
	case *And:
		l, r := SelectivityHint(x.L), SelectivityHint(x.R)
		if l > r {
			return l
		}
		return r
	case *Or:
		l, r := SelectivityHint(x.L), SelectivityHint(x.R)
		if l < r {
			return l
		}
		return r
	case *Not:
		return 0
	case *Search:
		best := 0
		for _, frag := range x.Fragments {
			if len(frag) > best {
				best = len(frag)
			}
		}
		return best
	}
	return 0
}

// Searches returns all Search leaves of an expression, left to right.
func Searches(e Expr) []*Search {
	switch x := e.(type) {
	case *And:
		return append(Searches(x.L), Searches(x.R)...)
	case *Or:
		return append(Searches(x.L), Searches(x.R)...)
	case *Not:
		return Searches(x.X)
	case *Search:
		return []*Search{x}
	}
	return nil
}
