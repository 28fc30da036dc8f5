package core

import "testing"

func TestSessionRefining(t *testing.T) {
	lines := genBlock(17, 600)
	st, raw := mustOpen(t, makeBlock(lines...), DefaultOptions())
	s := st.NewSession()

	r1, err := s.Refine("ERROR")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Lines) == 0 {
		t.Fatal("no ERROR lines")
	}
	r2, err := s.Refine("state:ERR#404")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Lines) == 0 || len(r2.Lines) > len(r1.Lines) {
		t.Fatalf("refinement grew: %d -> %d", len(r1.Lines), len(r2.Lines))
	}
	if s.Command() != "ERROR AND state:ERR#404" {
		t.Fatalf("command = %q", s.Command())
	}
	want := naiveQuery(t, raw, s.Command())
	if len(r2.Lines) != len(want) {
		t.Fatalf("session result %d != oracle %d", len(r2.Lines), len(want))
	}

	// Back pops to the previous step, served from the query cache.
	back, err := s.Back()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Lines) != len(r1.Lines) {
		t.Fatalf("Back = %d lines, want %d", len(back.Lines), len(r1.Lines))
	}
	if back.Decompressions != 0 {
		t.Fatal("Back re-decompressed despite the cache")
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d", s.Depth())
	}
	// Popping to empty is a nil result, no error.
	if res, err := s.Back(); err != nil || res != nil {
		t.Fatalf("empty Back = %v, %v", res, err)
	}
}

func TestSessionOperatorClauseParenthesized(t *testing.T) {
	lines := genBlock(18, 400)
	st, raw := mustOpen(t, makeBlock(lines...), DefaultOptions())
	s := st.NewSession()
	if _, err := s.Refine("worker-3 OR worker-5"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Refine("queue")
	if err != nil {
		t.Fatal(err)
	}
	if s.Command() != "(worker-3 OR worker-5) AND queue" {
		t.Fatalf("command = %q", s.Command())
	}
	want := naiveQuery(t, raw, s.Command())
	if len(res.Lines) != len(want) {
		t.Fatalf("result %d != oracle %d", len(res.Lines), len(want))
	}
}

func TestSessionBadClauseRollsBack(t *testing.T) {
	st, _ := mustOpen(t, makeBlock("a b c"), DefaultOptions())
	s := st.NewSession()
	if _, err := s.Refine("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refine("(("); err == nil {
		t.Fatal("bad clause accepted")
	}
	if s.Depth() != 1 {
		t.Fatalf("failed refine left depth %d", s.Depth())
	}
	if _, err := s.Refine("  "); err == nil {
		t.Fatal("empty clause accepted")
	}
}
