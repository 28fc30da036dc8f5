package archive

import (
	"context"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// faultOracle holds the pristine archive's ground truth: every line and
// every query's exact match set.
type faultOracle struct {
	lines   []string
	queries []string
	matches map[string]map[int]string // query -> global line -> entry
}

func buildFaultOracle(t *testing.T, lines []string, queries []string) *faultOracle {
	t.Helper()
	or := &faultOracle{lines: lines, queries: queries, matches: map[string]map[int]string{}}
	for _, q := range queries {
		m := map[int]string{}
		for _, l := range oracle(t, lines, q) {
			m[l] = lines[l]
		}
		if len(m) == 0 {
			t.Fatalf("query %q matches nothing; sweep would prove nothing", q)
		}
		or.matches[q] = m
	}
	return or
}

// checkCorrupted asserts the corruption trichotomy on one damaged buffer:
// either Open fails cleanly, or the damage is quarantined — every reported
// match is byte-identical to the pristine archive's, every pristine match
// outside the reported damage is present, and lines from untouched blocks
// reconstruct exactly. Never a wrong match, never silent loss.
func checkCorrupted(t *testing.T, name string, data []byte, or *faultOracle, deep bool) {
	t.Helper()
	a, err := Open(data)
	if err != nil {
		return // clean refusal is the first acceptable arm
	}
	for _, q := range or.queries {
		res, err := a.Search(context.Background(), q, core.SearchOpts{Workers: 2})
		if err != nil {
			t.Errorf("%s: query %q failed instead of quarantining: %v", name, q, err)
			continue
		}
		lost := func(line int) bool {
			if line >= a.NumLines() {
				return true
			}
			for _, d := range res.Damaged {
				if d.NumLines == 0 {
					if line >= d.FirstLine {
						return true
					}
				} else if line >= d.FirstLine && line < d.FirstLine+d.NumLines {
					return true
				}
			}
			return false
		}
		got := map[int]bool{}
		for i, l := range res.Lines {
			want, ok := or.matches[q][l]
			if !ok {
				t.Errorf("%s: query %q: wrong match at line %d: %q", name, q, l, res.Entries[i])
				continue
			}
			if res.Entries[i] != want {
				t.Errorf("%s: query %q: line %d reconstructed as %q, want %q", name, q, l, res.Entries[i], want)
			}
			got[l] = true
		}
		for l := range or.matches[q] {
			if !got[l] && !lost(l) {
				t.Errorf("%s: query %q: match at line %d missing with no damage report", name, q, l)
			}
		}
	}
	// Entry must either reconstruct the pristine line or refuse — never
	// return different bytes.
	for _, l := range []int{0, len(or.lines) / 2, len(or.lines) - 1} {
		if l >= a.NumLines() {
			continue // truncated away; the damage report covers it
		}
		if got, err := a.Entry(context.Background(), l); err == nil && got != or.lines[l] {
			t.Errorf("%s: Entry(%d) = %q, want %q", name, l, got, or.lines[l])
		}
	}
	if !deep {
		return
	}
	lines, damaged := a.ReconstructPartial()
	isLost := func(line int) bool {
		for _, d := range damaged {
			if d.NumLines > 0 && line >= d.FirstLine && line < d.FirstLine+d.NumLines {
				return true
			}
		}
		return false
	}
	var want []string
	for i := 0; i < a.NumLines() && i < len(or.lines); i++ {
		if !isLost(i) {
			want = append(want, or.lines[i])
		}
	}
	if len(lines) != len(want) {
		t.Errorf("%s: ReconstructPartial returned %d lines, damage report implies %d", name, len(lines), len(want))
		return
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("%s: ReconstructPartial line %d = %q, want %q", name, i, lines[i], want[i])
			return
		}
	}
	if len(damaged) > 0 {
		if _, err := a.ReconstructAll(); err == nil {
			t.Errorf("%s: ReconstructAll succeeded despite damage", name)
		}
	}
}

// TestFaultInjectionSweep corrupts every frame of a multi-block archive —
// header bits, payload bits, zero runs, truncations at and inside frame
// boundaries, and frame reorderings — and asserts the trichotomy for each.
func TestFaultInjectionSweep(t *testing.T) {
	lt, _ := loggen.ByName("G")
	stream := lt.Block(42, 3000)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(60_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 4 {
		t.Fatalf("sweep archive has %d blocks, want >= 4", a.NumBlocks())
	}
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	or := buildFaultOracle(t, lines, []string{lt.Query, "Operation:WriteChunk", "NOT INFO"})

	// The pristine archive itself must pass with zero damage.
	checkCorrupted(t, "pristine", data, or, true)
	if d := a.Verify(true); d != nil {
		t.Fatalf("pristine archive reports damage: %v", d)
	}

	headerStride := 1
	payloadSamples := 8
	if testing.Short() {
		headerStride, payloadSamples = 5, 3
	}

	var cs []faultinject.Corruptor
	cs = append(cs,
		faultinject.BitFlip(0, 3), // magic
		faultinject.Truncate(0),
		faultinject.Truncate(len(Magic)/2),
	)
	for fi, fr := range frames {
		hdrLen := fr.PayloadOff - fr.HeaderOff
		for off := fr.HeaderOff; off < fr.PayloadOff; off += headerStride {
			cs = append(cs, faultinject.BitFlip(off, uint(off)))
		}
		for k := 0; k < payloadSamples && fr.PayloadLen > 0; k++ {
			cs = append(cs, faultinject.BitFlip(fr.PayloadOff+k*fr.PayloadLen/payloadSamples, uint(k)))
		}
		cs = append(cs, faultinject.ZeroRun(fr.HeaderOff, hdrLen))
		if fr.PayloadLen > 8 {
			cs = append(cs, faultinject.ZeroRun(fr.PayloadOff+fr.PayloadLen/3, 8))
		}
		cs = append(cs,
			faultinject.Truncate(fr.HeaderOff),
			faultinject.Truncate(fr.HeaderOff+hdrLen/2),
		)
		if fr.PayloadLen > 0 {
			cs = append(cs, faultinject.Truncate(fr.PayloadOff+fr.PayloadLen/2))
		}
		if fi+1 < len(frames) {
			nx := frames[fi+1]
			cs = append(cs, faultinject.SwapRanges(
				fr.HeaderOff, fr.PayloadOff-fr.HeaderOff+fr.PayloadLen,
				nx.HeaderOff, nx.PayloadOff-nx.HeaderOff+nx.PayloadLen))
		}
	}

	for i, c := range cs {
		checkCorrupted(t, c.Name, c.Apply(data), or, i%5 == 0)
		if t.Failed() {
			t.Fatalf("stopping sweep after first failing corruptor (of %d)", len(cs))
		}
	}
	t.Logf("sweep: %d corruptions over %d frames", len(cs), len(frames))
}

// TestFaultSwapIsTransparent pins the strongest property the absolute
// line offsets buy: swapping two complete frames loses nothing — every
// block still answers under its pristine global line numbers.
func TestFaultSwapIsTransparent(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(7, 4000)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(80_000))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("need >= 2 data frames, got %d", len(frames)-1)
	}
	f0, f1 := frames[0], frames[1]
	swapped := faultinject.SwapRanges(
		f0.HeaderOff, f0.PayloadOff-f0.HeaderOff+f0.PayloadLen,
		f1.HeaderOff, f1.PayloadOff-f1.HeaderOff+f1.PayloadLen).Apply(data)
	a, err := Open(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Verify(true); d != nil {
		t.Fatalf("swapped frames reported as damage: %v", d)
	}
	got, err := a.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lines) {
		t.Fatalf("reconstructed %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], lines[i])
		}
	}
}
