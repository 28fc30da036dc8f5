package logparse

import (
	"bytes"
	"strings"
)

// IsDelim reports whether b separates tokens. The set matches the paper's
// examples: spaces and commas split tokens; ':' does not, so "state:503"
// stays one token (§3 Query).
func IsDelim(b byte) bool {
	switch b {
	case ' ', '\t', ',', ';', '"', '(', ')', '[', ']', '=':
		return true
	}
	return false
}

// Piece is one fragment of a tokenized line: either a token or the exact
// run of delimiter bytes between tokens.
type Piece struct {
	Text    string
	IsToken bool
}

// Tokenize splits line into alternating delimiter-run and token pieces.
// Concatenating the pieces reproduces the line exactly.
func Tokenize(line string) []Piece { return AppendTokenize(nil, line) }

// AppendTokenize appends the pieces of line to dst and returns it, so a
// caller that is done with one line's pieces can reuse them for the next.
func AppendTokenize(dst []Piece, line string) []Piece {
	pieces := dst
	i := 0
	for i < len(line) {
		j := i
		if IsDelim(line[i]) {
			for j < len(line) && IsDelim(line[j]) {
				j++
			}
			pieces = append(pieces, Piece{Text: line[i:j]})
		} else {
			for j < len(line) && !IsDelim(line[j]) {
				j++
			}
			pieces = append(pieces, Piece{Text: line[i:j], IsToken: true})
		}
		i = j
	}
	return pieces
}

// Signature returns the static-layout key of a tokenized line: delimiter
// runs verbatim, tokens as placeholders.
func Signature(pieces []Piece) string {
	var b strings.Builder
	for _, p := range pieces {
		if p.IsToken {
			b.WriteByte(0)
		} else {
			b.WriteString(p.Text)
			b.WriteByte(1)
		}
	}
	return b.String()
}

// variantKey returns the level-2 key: digit-free tokens verbatim,
// digit-bearing tokens as placeholders.
func variantKey(pieces []Piece) string {
	var b strings.Builder
	for _, p := range pieces {
		if !p.IsToken {
			continue
		}
		if containsDigit(p.Text) {
			b.WriteByte(0)
		} else {
			b.WriteString(p.Text)
		}
		b.WriteByte(1)
	}
	return b.String()
}

// Element is one element of a template: a literal (delimiter runs and static
// tokens, merged) or a variable slot.
type Element struct {
	Lit string // literal text; meaningful when Var < 0
	Var int    // variable slot index, or -1 for a literal
}

// Template is a mined static pattern.
type Template struct {
	Elems   []Element
	NumVars int
	// tokenStatic[i] reports whether token position i is static, and
	// tokenLit[i] holds its required value; used during parsing.
	tokenStatic []bool
	tokenLit    []string
}

// String renders the template with "<*>" in variable positions.
func (t *Template) String() string {
	var b strings.Builder
	for _, e := range t.Elems {
		if e.Var >= 0 {
			b.WriteString("<*>")
		} else {
			b.WriteString(e.Lit)
		}
	}
	return b.String()
}

// Reconstruct fills vars into the template's slots.
func (t *Template) Reconstruct(vars []string) string {
	var b strings.Builder
	for _, e := range t.Elems {
		if e.Var >= 0 {
			b.WriteString(vars[e.Var])
		} else {
			b.WriteString(e.Lit)
		}
	}
	return b.String()
}

// Group is all entries sharing one template, decomposed into variable
// vectors.
type Group struct {
	Template *Template
	// Vars[v][k] is the value of variable v in the group's k-th entry.
	Vars [][]string
	// Lines[k] is the original block line number of the k-th entry.
	Lines []int
}

// Rows returns the number of entries in the group.
func (g *Group) Rows() int { return len(g.Lines) }

// Parsed is the result of structurizing one log block.
type Parsed struct {
	Groups []*Group
	// Outliers are raw lines that matched no template (static-token
	// mismatch under a merged template); OutlierLines are their numbers.
	Outliers     []string
	OutlierLines []int
	NumLines     int
}

// Options configures Parse.
type Options struct {
	// SampleRate is the fraction of lines used for template mining
	// (the paper uses 5%). Clamped to (0, 1].
	SampleRate float64
	// MaxVariants is the per-signature budget of level-2 templates
	// (variant keys before merging).
	MaxVariants int
}

// DefaultOptions mirror the paper's settings.
func DefaultOptions() Options {
	return Options{SampleRate: 0.05, MaxVariants: 16}
}

func containsDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// templateFromLine mines a template from a single line: digit-free tokens
// are static, digit-bearing tokens are variables.
func templateFromLine(pieces []Piece) *Template {
	t := &Template{}
	for _, p := range pieces {
		if !p.IsToken {
			appendLit(t, p.Text)
			continue
		}
		static := !containsDigit(p.Text)
		t.tokenStatic = append(t.tokenStatic, static)
		if static {
			t.tokenLit = append(t.tokenLit, p.Text)
			appendLit(t, p.Text)
		} else {
			t.tokenLit = append(t.tokenLit, "")
			t.Elems = append(t.Elems, Element{Var: t.NumVars})
			t.NumVars++
		}
	}
	return t
}

// mergedTemplate mines a template from several variants of one signature:
// a position is static only if every sampled value there is one digit-free
// string.
func mergedTemplate(pieces []Piece, distinct []map[string]struct{}) *Template {
	t := &Template{}
	ti := 0
	for _, p := range pieces {
		if !p.IsToken {
			appendLit(t, p.Text)
			continue
		}
		set := distinct[ti]
		static := false
		var lit string
		if set != nil && len(set) == 1 {
			for v := range set {
				lit = v
			}
			static = !containsDigit(lit)
		}
		t.tokenStatic = append(t.tokenStatic, static)
		if static {
			t.tokenLit = append(t.tokenLit, lit)
			appendLit(t, lit)
		} else {
			t.tokenLit = append(t.tokenLit, "")
			t.Elems = append(t.Elems, Element{Var: t.NumVars})
			t.NumVars++
		}
		ti++
	}
	return t
}

// appendLit adds literal text, merging with a preceding literal element.
func appendLit(t *Template, text string) {
	if n := len(t.Elems); n > 0 && t.Elems[n-1].Var < 0 {
		t.Elems[n-1].Lit += text
		return
	}
	t.Elems = append(t.Elems, Element{Lit: text, Var: -1})
}

// SplitLines splits a block into lines without the trailing newline. A final
// newline does not produce an empty last line.
func SplitLines(block []byte) []string {
	if len(block) == 0 {
		return nil
	}
	trimmed := block
	if trimmed[len(trimmed)-1] == '\n' {
		trimmed = trimmed[:len(trimmed)-1]
	}
	parts := bytes.Split(trimmed, []byte{'\n'})
	lines := make([]string, len(parts))
	for i, p := range parts {
		lines[i] = string(p)
	}
	return lines
}

// sigState is the per-signature mining and parsing state.
type sigState struct {
	// byVariant maps level-2 keys to their templates; nil once merged.
	byVariant map[string]*Template
	// merged is the single template after a variant-budget overflow.
	merged *Template
	// mining state (sampling pass only).
	variants map[string][]Piece    // representative line per variant
	distinct []map[string]struct{} // per token position, values seen
	rep      []Piece               // any representative tokenization
}

func (st *sigState) observe(pieces []Piece, budget int) {
	key := variantKey(pieces)
	if st.variants == nil {
		st.variants = make(map[string][]Piece)
	}
	if _, ok := st.variants[key]; !ok && len(st.variants) <= budget {
		st.variants[key] = pieces
	}
	if st.rep == nil {
		st.rep = pieces
		nTok := 0
		for _, p := range pieces {
			if p.IsToken {
				nTok++
			}
		}
		st.distinct = make([]map[string]struct{}, nTok)
		for i := range st.distinct {
			st.distinct[i] = make(map[string]struct{})
		}
	}
	ti := 0
	for _, p := range pieces {
		if !p.IsToken {
			continue
		}
		if ti >= len(st.distinct) {
			break
		}
		if set := st.distinct[ti]; set != nil {
			set[p.Text] = struct{}{}
			if len(set) > 4*budget {
				st.distinct[ti] = nil // over budget: definitely a variable
			}
		}
		ti++
	}
}

// seal converts mining state into parse-ready templates.
func (st *sigState) seal(budget int) {
	if len(st.variants) > budget {
		st.merged = mergedTemplate(st.rep, st.distinct)
	} else {
		st.byVariant = make(map[string]*Template, len(st.variants))
		for key, pieces := range st.variants {
			st.byVariant[key] = templateFromLine(pieces)
		}
	}
	st.variants, st.distinct, st.rep = nil, nil, nil
}

// Parse structurizes a log block: mines templates on a sample, then parses
// every line into grouped variable vectors.
func Parse(block []byte, opts Options) *Parsed {
	if opts.SampleRate <= 0 || opts.SampleRate > 1 {
		opts.SampleRate = DefaultOptions().SampleRate
	}
	if opts.MaxVariants <= 0 {
		opts.MaxVariants = DefaultOptions().MaxVariants
	}
	lines := SplitLines(block)
	p := &Parsed{NumLines: len(lines)}
	if len(lines) == 0 {
		return p
	}

	// Pass 1: mine templates on an evenly spaced sample.
	stride := int(1 / opts.SampleRate)
	if stride < 1 {
		stride = 1
	}
	states := make(map[string]*sigState)
	for i := 0; i < len(lines); i += stride {
		pieces := Tokenize(lines[i])
		sig := Signature(pieces)
		st := states[sig]
		if st == nil {
			st = &sigState{}
			states[sig] = st
		}
		st.observe(pieces, opts.MaxVariants)
	}
	for _, st := range states {
		st.seal(opts.MaxVariants)
	}

	// Pass 2: parse every line.
	type groupKey struct{ sig, variant string }
	groups := make(map[groupKey]*Group)
	var order []groupKey
	// Templates and values keep a piece's string, never the slice, so one
	// buffer serves every line. Pass 1 cannot do the same: sigState.observe
	// retains its slices.
	var pieces []Piece
	for lineNo, line := range lines {
		pieces = AppendTokenize(pieces[:0], line)
		sig := Signature(pieces)
		st := states[sig]
		if st == nil {
			st = &sigState{byVariant: make(map[string]*Template)}
			states[sig] = st
		}
		var tmpl *Template
		var gk groupKey
		if st.merged != nil {
			tmpl = st.merged
			gk = groupKey{sig: sig}
		} else {
			key := variantKey(pieces)
			tmpl = st.byVariant[key]
			if tmpl == nil {
				if len(st.byVariant) >= 4*opts.MaxVariants {
					// Runaway variant growth at parse time: fall back
					// to a merged all-variable template for new keys.
					if st.merged == nil {
						st.merged = mergedTemplate(pieces, make([]map[string]struct{}, countTokens(pieces)))
					}
					tmpl = st.merged
					gk = groupKey{sig: sig}
				} else {
					tmpl = templateFromLine(pieces)
					st.byVariant[key] = tmpl
					gk = groupKey{sig: sig, variant: key}
				}
			} else {
				gk = groupKey{sig: sig, variant: key}
			}
		}
		vals, ok := matchTemplate(tmpl, pieces)
		if !ok {
			p.Outliers = append(p.Outliers, line)
			p.OutlierLines = append(p.OutlierLines, lineNo)
			continue
		}
		g := groups[gk]
		if g == nil {
			g = &Group{Template: tmpl, Vars: make([][]string, tmpl.NumVars)}
			groups[gk] = g
			order = append(order, gk)
		}
		for v, val := range vals {
			g.Vars[v] = append(g.Vars[v], val)
		}
		g.Lines = append(g.Lines, lineNo)
	}
	for _, gk := range order {
		p.Groups = append(p.Groups, groups[gk])
	}
	return p
}

func countTokens(pieces []Piece) int {
	n := 0
	for _, p := range pieces {
		if p.IsToken {
			n++
		}
	}
	return n
}

// matchTemplate checks static tokens and extracts variable values.
func matchTemplate(t *Template, pieces []Piece) ([]string, bool) {
	vals := make([]string, 0, t.NumVars)
	ti := 0
	for _, p := range pieces {
		if !p.IsToken {
			continue
		}
		if ti >= len(t.tokenStatic) {
			return nil, false
		}
		if t.tokenStatic[ti] {
			if p.Text != t.tokenLit[ti] {
				return nil, false
			}
		} else {
			vals = append(vals, p.Text)
		}
		ti++
	}
	if ti != len(t.tokenStatic) {
		return nil, false
	}
	return vals, true
}
