package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the bench into a layer's public function.
// Spans of one operation share Op; Parent is the span that caused this one
// (-1 for an operation's root). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// It is used from one goroutine. A nil tracer records nothing, so the
// untraced run executes the same code with no span work at all.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open span ids, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open span; a span opened with
// nothing open starts a new operation. The returned func closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.op++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// merge appends another tracer's spans, renumbering their ids and
// operations and shifting their times onto this tracer's clock.
func (t *tracer) merge(o *tracer) {
	shift := o.t0.Sub(t.t0).Nanoseconds()
	idBase, opBase := len(t.spans), t.op+1
	for _, s := range o.spans {
		s.ID += idBase
		if s.Parent >= 0 {
			s.Parent += idBase
		}
		s.Op += opBase
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
	t.op += o.op + 1
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once, so self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, s.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf is the layer a span's self time is charged to: the package name
// before the dot ("lzma.Compress" -> "lzma"). Spans the bench opens around
// its own bookkeeping are named "bench.*".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanTotals sums spans by name.
type spanTotals map[string]struct {
	count int
	ns    int64
}

func totals(spans []span) spanTotals {
	out := make(spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.count++
		t.ns += s.End - s.Start
		out[s.Name] = t
	}
	return out
}

// secs is the summed duration of the spans of that name, in seconds.
func (st spanTotals) secs(name string) float64 { return float64(st[name].ns) / 1e9 }

// count is the number of spans of that name.
func (st spanTotals) count(name string) float64 { return float64(st[name].count) }

// durations returns every span of the given name, in seconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// printLedger prints, for the operations whose root span is named root, the
// self time of every layer beneath it against the root's wall-clock. The
// root's own self time is the unattributed share: time inside the call that
// no deeper span from the bench could see. A large gap is a finding, not a
// failure.
func printLedger(w io.Writer, spans []span, root string) {
	self := selfTimes(spans)
	inOp := make(map[int]bool)
	var wall int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			inOp[s.Op] = true
			wall += s.End - s.Start
		}
	}
	if wall == 0 {
		return
	}
	byLayer := make(map[string]int64)
	for i, s := range spans {
		if inOp[s.Op] {
			byLayer[layerOf(s.Name)] += self[i]
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	fmt.Fprintf(w, "# ledger %s: wall %.3fs over %d operations\n", root, float64(wall)/1e9, len(inOp))
	var attributed int64
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-12s self %9.3fs  %5.1f%%\n", l, float64(byLayer[l])/1e9, 100*float64(byLayer[l])/float64(wall))
		attributed += byLayer[l]
	}
	fmt.Fprintf(w, "#   sum of layer self times %.3fs = %.1f%% of wall\n", float64(attributed)/1e9, 100*float64(attributed)/float64(wall))
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
