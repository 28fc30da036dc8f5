package rtpattern

import (
	"math/rand"
	"sort"
	"strings"
)

// Options tune extraction; DefaultOptions matches the paper.
type Options struct {
	// SampleRate is the fraction of values used to mine the pattern of a
	// real vector (the paper samples 5%).
	SampleRate float64
	// MinSample is the sample floor so tiny vectors still mine well.
	MinSample int
	// Coverage is the fraction of node values that must contain a
	// candidate delimiter for a split (the paper uses 95%).
	Coverage float64
	// Tries is how many random values a delimiter is drawn from before a
	// leaf is marked unsplitable (the paper tries 3).
	Tries int
	// DupThreshold separates real (<) from nominal (>=) vectors (0.5).
	DupThreshold float64
	// MaxSubs caps the number of sub-variables per pattern.
	MaxSubs int
	// Seed makes extraction deterministic.
	Seed int64
}

// DefaultOptions mirrors the paper's parameters.
func DefaultOptions() Options {
	return Options{
		SampleRate:   0.05,
		MinSample:    64,
		Coverage:     0.95,
		Tries:        3,
		DupThreshold: 0.5,
		MaxSubs:      16,
		Seed:         1,
	}
}

func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.SampleRate <= 0 || o.SampleRate > 1 {
		o.SampleRate = d.SampleRate
	}
	if o.MinSample <= 0 {
		o.MinSample = d.MinSample
	}
	if o.Coverage <= 0 || o.Coverage > 1 {
		o.Coverage = d.Coverage
	}
	if o.Tries <= 0 {
		o.Tries = d.Tries
	}
	if o.DupThreshold <= 0 || o.DupThreshold > 1 {
		o.DupThreshold = d.DupThreshold
	}
	if o.MaxSubs <= 0 {
		o.MaxSubs = d.MaxSubs
	}
	return o
}

// Category tells which extraction method applies to a variable vector.
type Category int

const (
	// Real vectors (duplication rate below threshold) get the
	// tree-expanding single-pattern extractor.
	Real Category = iota
	// Nominal vectors (many duplicates) get the pattern-merging
	// multi-pattern extractor with a dictionary and an index.
	Nominal
)

// String returns the category name.
func (c Category) String() string {
	if c == Real {
		return "real"
	}
	return "nominal"
}

// Categorize applies the duplication-rate heuristic of §4.1.
func Categorize(values []string, opts Options) Category {
	return CategorizeCount(len(values), distinctCount(values), opts)
}

// CategorizeCount is Categorize for a vector of n values, distinct of them
// distinct, for a caller that has counted them already: the seal reads the
// count off the Distinct pass it also feeds the index digest from.
func CategorizeCount(n, distinct int, opts Options) Category {
	if dupRate(n, distinct) < opts.normalized().DupThreshold {
		return Real
	}
	return Nominal
}

// RealResult is the outcome of tree-expanding extraction on a real vector.
type RealResult struct {
	Pattern *Pattern
	// Subs[s][k] is sub-variable s of the k-th matching value, in vector
	// order.
	Subs [][]string
	// MatchRows[k] is the vector row of the k-th matching value.
	MatchRows []int
	// Outliers and OutlierRows hold values the pattern does not cover.
	Outliers    []string
	OutlierRows []int
}

// ExtractReal mines a single runtime pattern from values with the
// tree-expanding approach (§4.1, Figure 4) and decomposes every value
// against it. Values the pattern cannot parse go to the outlier partition.
// If the pattern covers under half the vector, extraction falls back to a
// single whole-value sub-variable so structure mis-detection can only cost
// efficiency, not blow up the outlier capsule.
func ExtractReal(values []string, opts Options) *RealResult {
	opts = opts.normalized()
	pat := mineTreePattern(values, opts)
	res := decompose(pat, values)
	if len(res.MatchRows) < len(values)/2 {
		res = decompose(singleSub(), values)
	}
	// Stamps over the actual stored fragments.
	for i, e := range res.Pattern.Elems {
		if e.Sub >= 0 {
			res.Pattern.Elems[i].Stamp = StampOf(res.Subs[e.Sub])
		}
	}
	return res
}

// decompose splits every value against pat. Each sub-variable column and
// the match rows are sized for the whole vector up front, the columns out
// of one backing array, so a vector costs the same few allocations however
// many values it holds.
func decompose(pat *Pattern, values []string) *RealResult {
	n := len(values)
	res := &RealResult{Pattern: pat, Subs: make([][]string, pat.NumSubs), MatchRows: make([]int, 0, n)}
	cols := make([]string, pat.NumSubs*n)
	for s := range res.Subs {
		res.Subs[s] = cols[s*n : s*n : (s+1)*n]
	}
	subs := make([]string, 0, pat.NumSubs)
	for row, v := range values {
		var ok bool
		if subs, ok = pat.AppendParse(subs[:0], v); !ok {
			res.Outliers = append(res.Outliers, v)
			res.OutlierRows = append(res.OutlierRows, row)
			continue
		}
		for s, frag := range subs {
			res.Subs[s] = append(res.Subs[s], frag)
		}
		res.MatchRows = append(res.MatchRows, row)
	}
	return res
}

// treeNode is a leaf of the expanding pattern tree: aligned fragments of
// the sample values.
type treeNode struct {
	frags       []string
	unsplitable bool
	constant    bool // all fragments identical
}

func (n *treeNode) allSame() bool {
	for _, f := range n.frags[1:] {
		if f != n.frags[0] {
			return false
		}
	}
	return true
}

// mineTreePattern builds and fully expands a pattern tree over a sample of
// values (Figure 4). The returned pattern has no stamps yet.
func mineTreePattern(values []string, opts Options) *Pattern {
	if len(values) == 0 {
		return singleSub()
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Sample, then dedup: the root node holds unique sampled values.
	n := int(float64(len(values)) * opts.SampleRate)
	if n < opts.MinSample {
		n = opts.MinSample
	}
	if n > len(values) {
		n = len(values)
	}
	stride := len(values) / n
	if stride < 1 {
		stride = 1
	}
	seen := make(map[string]struct{}, n)
	var root []string
	for i := 0; i < len(values); i += stride {
		if _, ok := seen[values[i]]; !ok {
			seen[values[i]] = struct{}{}
			root = append(root, values[i])
		}
	}
	if len(root) == 0 {
		return singleSub()
	}

	// leaves is the left-to-right sequence of pattern fragments; literal
	// delimiters are represented as constant single-fragment nodes.
	leaves := []*treeNode{{frags: root}}
	subCount := 1
	for {
		progressed := false
		var next []*treeNode
		for _, leaf := range leaves {
			if leaf.constant || leaf.unsplitable || leaf.allSame() {
				leaf.constant = leaf.constant || leaf.allSame()
				next = append(next, leaf)
				continue
			}
			if subCount >= opts.MaxSubs {
				leaf.unsplitable = true
				next = append(next, leaf)
				continue
			}
			delim := chooseDelimiter(leaf.frags, rng, opts)
			if delim == "" {
				leaf.unsplitable = true
				next = append(next, leaf)
				continue
			}
			left, right := splitNode(leaf.frags, delim)
			next = append(next,
				&treeNode{frags: left},
				&treeNode{frags: []string{delim}, constant: true},
				&treeNode{frags: right},
			)
			subCount++ // one leaf became (up to) two sub-variables
			progressed = true
		}
		leaves = next
		if !progressed {
			break
		}
	}

	return leavesToPattern(leaves)
}

// chooseDelimiter picks a split delimiter for a leaf: first a
// non-alphanumeric character from randomly picked values, then the longest
// common substring of two randomly picked values; each flavor gets
// opts.Tries draws and must appear in at least opts.Coverage of the
// fragments.
func chooseDelimiter(frags []string, rng *rand.Rand, opts Options) string {
	covers := func(d string) bool {
		if d == "" {
			return false
		}
		hit := 0
		for _, f := range frags {
			if strings.Contains(f, d) {
				hit++
			}
		}
		return float64(hit) >= opts.Coverage*float64(len(frags))
	}
	for try := 0; try < opts.Tries; try++ {
		v := frags[rng.Intn(len(frags))]
		for i := 0; i < len(v); i++ {
			if !isAlnum(v[i]) {
				if d := v[i : i+1]; covers(d) {
					return d
				}
				break // one candidate char per draw, as in the paper
			}
		}
	}
	if len(frags) < 2 {
		return ""
	}
	for try := 0; try < opts.Tries; try++ {
		a := frags[rng.Intn(len(frags))]
		b := frags[rng.Intn(len(frags))]
		if a == b {
			continue
		}
		lcs := longestCommonSubstring(a, b)
		// Require some weight: a 1-byte common substring splits noise.
		if len(lcs) < 2 {
			continue
		}
		// Splitting on the entire fragment would leave both sides empty.
		if lcs == a && lcs == b {
			continue
		}
		if covers(lcs) {
			return lcs
		}
	}
	return ""
}

// splitNode splits every fragment at the first occurrence of delim.
// Fragments lacking delim keep the tree consistent by splitting into
// (fragment itself, empty) — they will fail Pattern.Parse later and land in
// the outlier capsule, which matches the paper's ≥95%-coverage tolerance.
func splitNode(frags []string, delim string) (left, right []string) {
	left = make([]string, len(frags))
	right = make([]string, len(frags))
	for i, f := range frags {
		if idx := strings.Index(f, delim); idx >= 0 {
			left[i] = f[:idx]
			right[i] = f[idx+len(delim):]
		} else {
			left[i] = f
		}
	}
	return left, right
}

// leavesToPattern converts the final leaf sequence into a Pattern:
// constant leaves become literals (merged when adjacent), the rest become
// sub-variables (merged when adjacent, which can happen after an empty
// constant leaf is dropped).
func leavesToPattern(leaves []*treeNode) *Pattern {
	p := &Pattern{}
	for _, leaf := range leaves {
		if leaf.constant || leaf.allSame() {
			if leaf.frags[0] == "" {
				continue // empty literal adds nothing
			}
			if n := len(p.Elems); n > 0 && p.Elems[n-1].Sub < 0 {
				p.Elems[n-1].Lit += leaf.frags[0]
			} else {
				p.Elems = append(p.Elems, Elem{Lit: leaf.frags[0], Sub: -1})
			}
			continue
		}
		if n := len(p.Elems); n > 0 && p.Elems[n-1].Sub >= 0 {
			continue // adjacent sub-variables merge into one
		}
		p.Elems = append(p.Elems, Elem{Sub: p.NumSubs})
		p.NumSubs++
	}
	if len(p.Elems) == 0 {
		return singleSub()
	}
	// An all-literal pattern can only parse one exact value; if the vector
	// is real (low duplication) that is useless — keep it anyway, the
	// caller's coverage fallback handles it.
	return p
}

// DictPattern is one runtime pattern of a nominal vector's dictionary.
type DictPattern struct {
	Pattern *Pattern
	// Count is how many dictionary values follow this pattern and MaxLen
	// their maximal length; together they let a query jump straight to the
	// pattern's region of the padded dictionary capsule (§5.2).
	Count  int
	MaxLen int
}

// NominalResult is the outcome of pattern merging on a nominal vector.
type NominalResult struct {
	Patterns []DictPattern
	// DictValues are the unique values, grouped so all values of one
	// pattern are consecutive, in Patterns order.
	DictValues []string
	// RowIndex[k] is the dictionary position of the k-th vector value.
	RowIndex []int
	// IndexWidth is the digit width of stored index entries.
	IndexWidth int
}

// ExtractNominal mines multiple patterns from a nominal vector with the
// pattern-merging approach (§4.1, Figure 5): dedup, sketch each unique
// value by its non-alphanumeric delimiter layout, merge sketches, constant-
// fold sub-variables, then order the dictionary by pattern and build the
// index vector.
func ExtractNominal(values []string) *NominalResult {
	var d Distinct
	d.Of(values)
	return ExtractNominalDistinct(&d)
}

// ExtractNominalDistinct is ExtractNominal for a vector whose values d
// has already told apart. The result does not keep d's slices.
func ExtractNominalDistinct(d *Distinct) *NominalResult {
	// Sketch each unique value and group the values' indexes by sketch
	// form.
	bySketch := make(map[string][]int32)
	var sketches []string
	for id, v := range d.Values {
		sk := sketchOf(v)
		if _, ok := bySketch[sk]; !ok {
			sketches = append(sketches, sk)
		}
		bySketch[sk] = append(bySketch[sk], int32(id))
	}
	// Sort sketches so all values of one pattern are stored sequentially
	// and the layout is deterministic (the paper sorts pattern sketches).
	sort.Strings(sketches)

	res := &NominalResult{DictValues: make([]string, 0, len(d.Values))}
	dictPos := make([]int, len(d.Values))
	var vals []string
	for _, sk := range sketches {
		ids := bySketch[sk]
		vals = vals[:0]
		for _, id := range ids {
			vals = append(vals, d.Values[id])
		}
		pat := mergeSketchGroup(vals)
		dp := DictPattern{Pattern: pat, Count: len(vals)}
		for k, v := range vals {
			if len(v) > dp.MaxLen {
				dp.MaxLen = len(v)
			}
			dictPos[ids[k]] = len(res.DictValues)
			res.DictValues = append(res.DictValues, v)
		}
		res.Patterns = append(res.Patterns, dp)
	}
	res.RowIndex = make([]int, len(d.Rows))
	for k, id := range d.Rows {
		res.RowIndex[k] = dictPos[id]
	}
	res.IndexWidth = digitWidth(len(res.DictValues))
	return res
}

// digitWidth returns the decimal width needed for indexes 0..n-1.
func digitWidth(n int) int {
	if n <= 1 {
		return 1
	}
	w := 0
	for m := n - 1; m > 0; m /= 10 {
		w++
	}
	return w
}

// sketchOf splits a value on non-alphanumeric characters: the sketch keeps
// the delimiters and replaces alphanumeric runs with a placeholder.
func sketchOf(v string) string {
	var b strings.Builder
	inTok := false
	for i := 0; i < len(v); i++ {
		if isAlnum(v[i]) {
			if !inTok {
				b.WriteByte(1)
				inTok = true
			}
		} else {
			b.WriteByte(v[i])
			inTok = false
		}
	}
	return b.String()
}

// mergeSketchGroup builds the pattern of one sketch group: alphanumeric
// runs where every value agrees become literals (constant folding, e.g.
// "ERR" in "ERR#<*>"); others become sub-variables stamped over the
// group's fragments.
func mergeSketchGroup(vals []string) *Pattern {
	parts := splitAlnumRuns(vals[0])
	nRuns := 0
	for _, p := range parts {
		if p.isRun {
			nRuns++
		}
	}
	// Collect each run position's values across the group.
	runVals := make([][]string, nRuns)
	for _, v := range vals {
		vp := splitAlnumRuns(v)
		ri := 0
		for _, p := range vp {
			if p.isRun {
				runVals[ri] = append(runVals[ri], p.text)
				ri++
			}
		}
	}
	pat := &Pattern{}
	ri := 0
	for _, p := range parts {
		if !p.isRun {
			appendPatLit(pat, p.text)
			continue
		}
		vs := runVals[ri]
		ri++
		if allEqual(vs) {
			appendPatLit(pat, vs[0])
			continue
		}
		pat.Elems = append(pat.Elems, Elem{Sub: pat.NumSubs, Stamp: StampOf(vs)})
		pat.NumSubs++
	}
	if len(pat.Elems) == 0 {
		// All values empty strings: a single empty-literal pattern.
		pat.Elems = append(pat.Elems, Elem{Lit: "", Sub: -1})
	}
	return pat
}

type alnumPart struct {
	text  string
	isRun bool
}

func splitAlnumRuns(v string) []alnumPart {
	var parts []alnumPart
	i := 0
	for i < len(v) {
		j := i
		if isAlnum(v[i]) {
			for j < len(v) && isAlnum(v[j]) {
				j++
			}
			parts = append(parts, alnumPart{text: v[i:j], isRun: true})
		} else {
			for j < len(v) && !isAlnum(v[j]) {
				j++
			}
			parts = append(parts, alnumPart{text: v[i:j]})
		}
		i = j
	}
	return parts
}

func allEqual(vs []string) bool {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return false
		}
	}
	return true
}

func appendPatLit(p *Pattern, text string) {
	if n := len(p.Elems); n > 0 && p.Elems[n-1].Sub < 0 {
		p.Elems[n-1].Lit += text
		return
	}
	p.Elems = append(p.Elems, Elem{Lit: text, Sub: -1})
}
