package main

import (
	"fmt"
	"strings"
)

// The oracle computes every query's expected answer from the raw lines with
// strings.Contains over the query's own conjunct and negation lists. The
// engine's semantics for wildcard-free phrases are plain substring match,
// and the bench builds its queries structurally, so nothing of the program
// (parser, matcher, index) is trusted.

// matches is the whole semantics of a querySpec.
func (q querySpec) matches(line string) bool {
	for _, m := range q.Must {
		if !strings.Contains(line, m) {
			return false
		}
	}
	for _, n := range q.Not {
		if strings.Contains(line, n) {
			return false
		}
	}
	return true
}

// expectLines returns the ascending 0-based numbers of the lines q matches.
func expectLines(lines []string, q querySpec) []int {
	var out []int
	for i, l := range lines {
		if q.matches(l) {
			out = append(out, i)
		}
	}
	return out
}

// anchorLen is how many bytes of an anchor phrase expectMany hashes; every
// anchor must be at least this long.
const anchorLen = 8

// expectMany is expectLines for thousands of queries in one pass over the
// lines instead of one pass each. It anchors every query on its longest
// Must phrase: a table keyed by the anchor's last 8 bytes finds the lines
// that hold an anchor (confirmed with strings.HasSuffix at the hit), and
// only those lines are put to q.matches. The last bytes are keyed, not the
// first, because ids share prefixes ("TraceId:", "reqId:") and differ in
// their tails. A bitmap over a hash of the last 4 bytes rejects most
// positions before the table is consulted. The result equals expectLines
// for every query; TestExpectManyEqualsNaive holds it to that.
func expectMany(lines []string, qs []querySpec) ([][]int, error) {
	byTail := make(map[uint64][]int, len(qs)) // anchor's last 8 bytes -> query indexes
	anchors := make([]string, len(qs))
	tails := make([]bool, 1<<prefilterBits)
	for qi, q := range qs {
		for _, m := range q.Must {
			if len(m) > len(anchors[qi]) {
				anchors[qi] = m
			}
		}
		a := anchors[qi]
		if len(a) < anchorLen {
			return nil, fmt.Errorf("oracle: query %q has no phrase of %d bytes to anchor on", q.command(), anchorLen)
		}
		k := load8(a[len(a)-anchorLen:])
		byTail[k] = append(byTail[k], qi)
		tails[hash4(a[len(a)-4:])] = true
	}
	out := make([][]int, len(qs))
	for li, line := range lines {
		for end := anchorLen; end <= len(line); end++ {
			if !tails[hash4(line[end-4:])] {
				continue
			}
			for _, qi := range byTail[load8(line[end-anchorLen:])] {
				if n := len(out[qi]); n > 0 && out[qi][n-1] == li {
					continue // a second occurrence in the same line
				}
				if strings.HasSuffix(line[:end], anchors[qi]) && qs[qi].matches(line) {
					out[qi] = append(out[qi], li)
				}
			}
		}
	}
	return out, nil
}

const prefilterBits = 20

// hash4 hashes the first 4 bytes of s to prefilterBits bits.
func hash4(s string) uint32 {
	_ = s[3]
	w := uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
	return w * 2654435761 >> (32 - prefilterBits)
}

// load8 reads the first 8 bytes of s as one little-endian word.
func load8(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// checkResult compares one answer with the oracle: the same line numbers in
// the same order, and every entry byte-identical to the raw line.
func checkResult(gotLines []int, gotEntries []string, want []int, lines []string) error {
	if len(gotLines) != len(want) || len(gotEntries) != len(want) {
		return fmt.Errorf("got %d lines / %d entries, oracle has %d", len(gotLines), len(gotEntries), len(want))
	}
	for i, w := range want {
		if gotLines[i] != w {
			return fmt.Errorf("match %d is line %d, oracle has line %d", i, gotLines[i], w)
		}
		if gotEntries[i] != lines[w] {
			return fmt.Errorf("line %d entry %q, raw line is %q", w, gotEntries[i], lines[w])
		}
	}
	return nil
}

// checkPrefixResult checks an answer read from a stream that was still
// being appended to. The writer had acked the first lo lines before the
// query was sent and had posted no more than hi lines when the answer
// arrived, so the answer must be the oracle's matches among the first n
// lines for some lo <= n <= hi: a prefix of want, reaching at least every
// match below lo and none at or past hi.
func checkPrefixResult(gotLines []int, gotEntries []string, want []int, lines []string, lo, hi int) error {
	k := len(gotLines)
	if k > len(want) {
		return fmt.Errorf("got %d matches, the whole oracle has %d", k, len(want))
	}
	if err := checkResult(gotLines, gotEntries, want[:k], lines); err != nil {
		return err
	}
	if k < len(want) && want[k] < lo {
		return fmt.Errorf("answer stops before line %d, which was acked (%d lines) before the query was sent", want[k], lo)
	}
	if k > 0 && want[k-1] >= hi {
		return fmt.Errorf("answer holds line %d, but only %d lines had been posted", want[k-1], hi)
	}
	return nil
}
