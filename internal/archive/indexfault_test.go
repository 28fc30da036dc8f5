package archive

import (
	"context"
	"testing"

	"loggrep/internal/blockindex"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
)

// TestIndexFaultInjectionSweep corrupts every region of the index tail —
// section header bits byte by byte, sampled payload bits, zero runs,
// truncations at and inside section boundaries, section reordering, and
// trailing garbage — and asserts the index damage contract: because the
// data frames are untouched, every query must return exactly the
// pristine result set. A damaged index may only cost speed (full scan),
// never a wrong or missing match, and must never surface as archive
// damage.
func TestIndexFaultInjectionSweep(t *testing.T) {
	lt, _ := loggen.ByName("G")
	stream := lt.Block(42, 2500)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(20_000))
	if err != nil {
		t.Fatal(err)
	}
	tailOff, sections, err := IndexSectionRange(data)
	if err != nil {
		t.Fatal(err)
	}
	if tailOff <= 0 || tailOff >= len(data) {
		t.Fatalf("no index tail: tailOff=%d len=%d", tailOff, len(data))
	}
	if len(sections) != 2 {
		t.Fatalf("expected 2 index sections, got %d", len(sections))
	}

	queries := []string{lt.Query, "Operation:WriteChunk", "NOT INFO"}
	type wantRes struct {
		lines   []int
		entries []string
	}
	want := map[string]wantRes{}
	for _, q := range queries {
		ls := oracle(t, lines, q)
		es := make([]string, len(ls))
		for i, l := range ls {
			es[i] = lines[l]
		}
		if len(ls) == 0 {
			t.Fatalf("query %q matches nothing; sweep would prove nothing", q)
		}
		want[q] = wantRes{lines: ls, entries: es}
	}

	check := func(name string, mutated []byte) {
		t.Helper()
		a, err := Open(mutated)
		if err != nil {
			t.Fatalf("%s: index corruption broke Open: %v", name, err)
		}
		if d := a.Damage(); len(d) != 0 {
			t.Fatalf("%s: index corruption misreported as archive damage: %v", name, d)
		}
		if d := a.Verify(false); len(d) != 0 {
			t.Fatalf("%s: Verify reports damage for index-only corruption: %v", name, d)
		}
		for _, q := range queries {
			res, err := a.Search(context.Background(), q, core.SearchOpts{Workers: 2})
			if err != nil {
				t.Fatalf("%s: query %q: %v", name, q, err)
			}
			if len(res.Damaged) != 0 {
				t.Fatalf("%s: query %q reported damage: %v", name, q, res.Damaged)
			}
			w := want[q]
			if len(res.Lines) != len(w.lines) {
				t.Fatalf("%s: query %q: %d matches, pristine has %d", name, q, len(res.Lines), len(w.lines))
			}
			for i := range w.lines {
				if res.Lines[i] != w.lines[i] {
					t.Fatalf("%s: query %q: match %d at line %d, pristine at %d", name, q, i, res.Lines[i], w.lines[i])
				}
				if res.Entries[i] != w.entries[i] {
					t.Fatalf("%s: query %q: entry %d text differs", name, q, i)
				}
			}
		}
	}

	// The pristine archive anchors the contract.
	check("pristine", data)

	var cs []faultinject.Corruptor
	for _, sec := range sections {
		secOff := tailOff + sec.Off
		// Every header byte, every bit-position class.
		for off := secOff; off < secOff+18; off++ {
			cs = append(cs, faultinject.BitFlip(off, uint(off)))
		}
		payloadOff := secOff + 18
		payloadLen := sec.Len - 18
		// Sampled payload positions (first, last, and spread).
		for k := 0; k < 16 && payloadLen > 0; k++ {
			cs = append(cs, faultinject.BitFlip(payloadOff+k*payloadLen/16, uint(k)))
		}
		if payloadLen > 0 {
			cs = append(cs, faultinject.BitFlip(payloadOff+payloadLen-1, 7))
			cs = append(cs, faultinject.ZeroRun(payloadOff, payloadLen))
		}
		if payloadLen > 16 {
			cs = append(cs, faultinject.ZeroRun(payloadOff+payloadLen/2, 8))
		}
		// Truncations at and inside the section.
		cs = append(cs,
			faultinject.Truncate(secOff),
			faultinject.Truncate(secOff+9),
			faultinject.Truncate(secOff+18),
			faultinject.Truncate(secOff+18+payloadLen/2),
		)
	}
	// Whole-tail mutations: cut clean, swap the two sections, append
	// garbage after the last one.
	cs = append(cs, faultinject.Truncate(tailOff))
	s0, s1 := sections[0], sections[1]
	cs = append(cs, faultinject.SwapRanges(
		tailOff+s0.Off, s0.Len, tailOff+s1.Off, s1.Len))

	for _, c := range cs {
		check(c.Name, c.Apply(data))
	}
	garbage := append(append([]byte(nil), data...), "LGIXgarbage-that-is-not-a-section"...)
	check("trailing-garbage", garbage)
	t.Logf("index sweep: %d corruptions over %d sections (%d tail bytes)",
		len(cs)+1, len(sections), len(data)-tailOff)
}

// TestIndexDamagedStillSkips pins the partial-degradation path: with the
// postings section destroyed but the blooms intact, queries still answer
// exactly and the surviving section still skips blocks.
func TestIndexDamagedStillSkips(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(7, 2500)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(20_000))
	if err != nil {
		t.Fatal(err)
	}
	tailOff, sections, err := IndexSectionRange(data)
	if err != nil {
		t.Fatal(err)
	}
	var postings *blockindex.SectionInfo
	for i := range sections {
		if sections[i].Kind == blockindex.KindPostings {
			postings = &sections[i]
		}
	}
	if postings == nil {
		t.Fatal("no postings section found")
	}
	mutated := faultinject.BitFlip(tailOff+postings.Off+18, 3).Apply(data)
	a, err := Open(mutated)
	if err != nil {
		t.Fatal(err)
	}
	st := a.IndexStats()
	if st.Damaged != 1 {
		t.Fatalf("Damaged = %d, want 1", st.Damaged)
	}
	if st.BloomBytes == 0 {
		t.Fatal("bloom section lost with the postings")
	}
	q := lt.Query
	wantLines := oracle(t, lines, q)
	res, err := a.Search(context.Background(), q, core.SearchOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != len(wantLines) {
		t.Fatalf("%d matches, oracle says %d", len(res.Lines), len(wantLines))
	}
	// An absent value must still be skippable through the surviving
	// blooms.
	tr := obsv.NewTrace("archive-query")
	if _, err := a.Search(context.Background(), "zzz_absent_7q8w9e", core.SearchOpts{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if attr(tr, "blocks_skipped_blooms") == 0 {
		t.Fatalf("surviving blooms skipped nothing (postings=%d blooms=0)", attr(tr, "blocks_skipped_postings"))
	}
}
