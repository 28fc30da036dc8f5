package blockindex

import (
	"bytes"
	"hash/maphash"
	"math"
)

// maxVocabTokenLen caps a normalized token's length in the postings
// vocabulary. A block containing a longer token is marked always-admit
// in the postings section instead — dropping the token silently would
// let a fragment hiding inside it be skipped.
const maxVocabTokenLen = 96

// BlockScan is the index-relevant digest of one raw block, computed by
// the archive writer's compression workers before the block order is
// known; Builder.Add later binds it to a line offset.
type BlockScan struct {
	// grams is the distinct 4-gram hash set of all tokens; nil when the
	// block exceeded maxBlockGrams (no bloom, always admit).
	grams *gramSet
	// vocab is the distinct normalized token set, pure-volatile shapes
	// excluded.
	vocab map[string]struct{}
	// overlong records that some normalized token exceeded
	// maxVocabTokenLen and was left out of vocab, so postings must
	// always admit this block.
	overlong bool
}

// ScanBlock tokenizes one raw block and digests it for indexing. Tokens
// are maximal runs of non-delimiter bytes within a line; '\n' is treated
// as a boundary even though the query grammar has no delimiter for it,
// because entries are single lines and a fragment spanning a newline can
// match nothing.
//
// The digest is a pure function of the block's distinct tokens, so the
// walk digests each distinct token once: a repeat, recognised by its
// bytes, adds nothing to the gram set, the vocabulary or the overlong
// flag.
func ScanBlock(block []byte) *BlockScan {
	// Presized from the block: loggen's types hold one distinct token per
	// 36–55 bytes and one distinct gram per 25–65.
	sc := &BlockScan{grams: newGramSet(len(block) / 8), vocab: make(map[string]struct{})}
	seen := newTokenSet(len(block) / 16)
	var norm []byte
	for i, n := 0, len(block); i < n; {
		for i < n && byteClass[block[i]]&clsBreak != 0 {
			i++
		}
		start := i
		for i < n && byteClass[block[i]]&clsBreak == 0 {
			i++
		}
		if i == start || !seen.insert(block, start, i) {
			continue
		}
		tok := block[start:i]
		if sc.grams != nil && !sc.grams.addGrams(tok) {
			sc.grams = nil
		}
		norm = AppendNormalize(norm[:0], tok)
		if pureVolatile(norm) {
			continue
		}
		if len(norm) > maxVocabTokenLen {
			sc.overlong = true
			continue
		}
		if _, ok := sc.vocab[string(norm)]; !ok {
			sc.vocab[string(norm)] = struct{}{}
		}
	}
	return sc
}

// maxSeenTokens caps the distinct tokens one scan remembers. Past it a
// new token is digested without being remembered, so its repeats are
// digested again: that costs time, never a different digest.
const maxSeenTokens = 1 << 20

// tokenSet remembers the distinct tokens of one block as (start, end)
// offsets into it: open addressing with linear probing over a
// power-of-two table. A probe that meets an equal hash compares the
// bytes, because a token dropped on a bare hash collision would lose its
// grams and let the bloom skip a block that matches.
type tokenSet struct {
	slots []tokenSlot
	n     int
}

// tokenSlot is one remembered token; end 0 marks an empty slot (a token
// is never empty, so a stored end is at least 1).
type tokenSlot struct {
	h          uint64
	start, end uint32
}

var tokenSeed = maphash.MakeSeed()

// newTokenSet returns an empty set of at least the given slot count.
func newTokenSet(slots int) *tokenSet {
	return &tokenSet{slots: make([]tokenSlot, 1<<tableBits(slots))}
}

// insert reports whether block[start:end] is new to the set, remembering
// it unless the set is full or the offsets do not fit a slot.
func (t *tokenSet) insert(block []byte, start, end int) bool {
	return t.insertHashed(block, start, end, maphash.Bytes(tokenSeed, block[start:end]))
}

func (t *tokenSet) insertHashed(block []byte, start, end int, h uint64) bool {
	tok := block[start:end]
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.end == 0 {
			if t.n >= maxSeenTokens || uint64(end) > math.MaxUint32 {
				return true
			}
			*s = tokenSlot{h: h, start: uint32(start), end: uint32(end)}
			if t.n++; 2*t.n > len(t.slots) {
				t.grow()
			}
			return true
		}
		if s.h == h && bytes.Equal(block[s.start:s.end], tok) {
			return false
		}
	}
}

func (t *tokenSet) grow() {
	old := t.slots
	t.slots = make([]tokenSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.end == 0 {
			continue
		}
		i := s.h & mask
		for t.slots[i].end != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
