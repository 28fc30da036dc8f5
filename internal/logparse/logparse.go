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

// appendSignature appends the static-layout key of a tokenized line to
// dst: delimiter runs verbatim, tokens as placeholders.
func appendSignature(dst []byte, pieces []Piece) []byte {
	for _, p := range pieces {
		if p.IsToken {
			dst = append(dst, 0)
		} else {
			dst = append(dst, p.Text...)
			dst = append(dst, 1)
		}
	}
	return dst
}

// appendVariantKey appends the level-2 key to dst: digit-free tokens
// verbatim, digit-bearing tokens as placeholders.
func appendVariantKey(dst []byte, pieces []Piece) []byte {
	for _, p := range pieces {
		if !p.IsToken {
			continue
		}
		if containsDigit(p.Text) {
			dst = append(dst, 0)
		} else {
			dst = append(dst, p.Text...)
		}
		dst = append(dst, 1)
	}
	return dst
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

// splitText is SplitLines over a string: its lines are slices of text, so
// a block costs one string however many lines it holds.
func splitText(text string) []string {
	if text == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(text, "\n"), "\n")
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

// observe records one sampled line and its variant key.
func (st *sigState) observe(pieces []Piece, key []byte, budget int) {
	if st.variants == nil {
		st.variants = make(map[string][]Piece)
	}
	if _, ok := st.variants[string(key)]; !ok && len(st.variants) <= budget {
		st.variants[string(key)] = pieces
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
	lines := splitText(string(block))
	p := &Parsed{NumLines: len(lines)}
	if len(lines) == 0 {
		return p
	}

	// Pass 1: mine templates on an evenly spaced sample. Signatures and
	// variant keys are built into reused buffers and looked up as
	// m[string(buf)], which does not allocate; only a new key is copied.
	stride := int(1 / opts.SampleRate)
	if stride < 1 {
		stride = 1
	}
	states := make(map[string]*sigState)
	var sig, key []byte
	for i := 0; i < len(lines); i += stride {
		pieces := Tokenize(lines[i]) // observe retains the slice
		sig = appendSignature(sig[:0], pieces)
		st := states[string(sig)]
		if st == nil {
			st = &sigState{}
			states[string(sig)] = st
		}
		key = appendVariantKey(key[:0], pieces)
		st.observe(pieces, key, opts.MaxVariants)
	}
	for _, st := range states {
		st.seal(opts.MaxVariants)
	}

	// Pass 2: parse every line. Each template is one group, so groups are
	// keyed by template and kept in first-seen order. Templates and values
	// keep a piece's string, never the slice, so one buffer serves every
	// line.
	groups := make(map[*Template]*Group)
	var pieces []Piece
	for lineNo, line := range lines {
		pieces = AppendTokenize(pieces[:0], line)
		sig = appendSignature(sig[:0], pieces)
		st := states[string(sig)]
		if st == nil {
			st = &sigState{byVariant: make(map[string]*Template)}
			states[string(sig)] = st
		}
		tmpl := st.merged
		if tmpl == nil {
			key = appendVariantKey(key[:0], pieces)
			tmpl = st.byVariant[string(key)]
			if tmpl == nil {
				if len(st.byVariant) >= 4*opts.MaxVariants {
					// Runaway variant growth at parse time: fall back
					// to a merged all-variable template for new keys.
					st.merged = mergedTemplate(pieces, make([]map[string]struct{}, countTokens(pieces)))
					tmpl = st.merged
				} else {
					tmpl = templateFromLine(pieces)
					st.byVariant[string(key)] = tmpl
				}
			}
		}
		if !matchesStatic(tmpl, pieces) {
			p.Outliers = append(p.Outliers, line)
			p.OutlierLines = append(p.OutlierLines, lineNo)
			continue
		}
		g := groups[tmpl]
		if g == nil {
			g = &Group{Template: tmpl, Vars: make([][]string, tmpl.NumVars)}
			groups[tmpl] = g
			p.Groups = append(p.Groups, g)
		}
		v, ti := 0, 0
		for _, pc := range pieces {
			if !pc.IsToken {
				continue
			}
			if !tmpl.tokenStatic[ti] {
				g.Vars[v] = append(g.Vars[v], pc.Text)
				v++
			}
			ti++
		}
		g.Lines = append(g.Lines, lineNo)
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

// matchesStatic reports whether the line's tokens line up with the
// template's token positions and equal its static tokens.
func matchesStatic(t *Template, pieces []Piece) bool {
	ti := 0
	for _, p := range pieces {
		if !p.IsToken {
			continue
		}
		if ti >= len(t.tokenStatic) || t.tokenStatic[ti] && p.Text != t.tokenLit[ti] {
			return false
		}
		ti++
	}
	return ti == len(t.tokenStatic)
}
