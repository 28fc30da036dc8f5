package blockindex

import "math/bits"

// Per-block bloom filter over raw token 4-grams. Sizing is budgeted, not
// proportional: a block's filter never exceeds 1/bloomBudgetDenom of the
// block's compressed frame, because unique high-entropy values (trace
// ids, request ids) would otherwise make the gram set — and hence the
// filter — rival the compressed data itself. Within the budget the
// filter gets bloomBitsPerGram bits per distinct gram and k probes,
// giving a per-gram false-positive rate of (1-e^(-k·n/m))^k ≈ 2.2% when
// unsaturated; past the budget every gram is still inserted (soundness
// is non-negotiable), the filter just runs denser with k scaled down to
// the density optimum ln2·m/n. A fragment of length L probes L-3 grams
// and is admitted only if all of them hit, so even a saturated filter's
// compound rate drops geometrically with fragment length (see DESIGN.md
// for the full math).
const (
	GramLen          = 4
	bloomBitsPerGram = 8
	bloomK           = 5

	// bloomBudgetDenom caps a block's filter at 1/32 (~3%) of the
	// block's compressed frame; minBloomBudgetBytes keeps tiny blocks'
	// filters functional (tiny blocks are also cheap to scan, so a
	// saturated filter there costs little).
	bloomBudgetDenom    = 32
	minBloomBudgetBytes = 64

	// maxBloomBits caps one block's filter (1 MiB of bits). Past the cap
	// the filter stays sound, just denser.
	maxBloomBits = 1 << 23

	// maxBlockGrams bounds the per-block distinct-gram set tracked during
	// scanning; blocks that exceed it (effectively random content) get no
	// bloom and are always admitted.
	maxBlockGrams = 1 << 21
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// gramHash is FNV-1a over one 4-byte gram.
func gramHash(b0, b1, b2, b3 byte) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(b0)) * fnvPrime64
	h = (h ^ uint64(b1)) * fnvPrime64
	h = (h ^ uint64(b2)) * fnvPrime64
	h = (h ^ uint64(b3)) * fnvPrime64
	return h
}

// tokenGrams appends the hashes of every 4-gram of tok to dst.
func tokenGrams(dst []uint64, tok string) []uint64 {
	for i := 0; i+GramLen <= len(tok); i++ {
		dst = append(dst, gramHash(tok[i], tok[i+1], tok[i+2], tok[i+3]))
	}
	return dst
}

// gramSet is the distinct-gram set of one block scan: open addressing
// with linear probing over a power-of-two table, 0 marking an empty slot
// and the zero hash kept in a flag of its own. Bloom bits do not depend
// on the order grams are set in, so buildBloom may walk the slots.
type gramSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	n     int  // non-zero hashes stored
	zero  bool
}

// newGramSet returns an empty set of at least the given slot count.
func newGramSet(slots int) *gramSet {
	b := tableBits(slots)
	return &gramSet{slots: make([]uint64, 1<<b), shift: 64 - b}
}

// tableBits is log2 of the power-of-two table size a set starts at for
// a slot count: at least 1<<10, and at most 1<<18 so a huge block does
// not pay for a table its tokens never fill; growth takes over past it.
func tableBits(slots int) uint {
	b := uint(bits.Len(uint(max(slots, 1) - 1)))
	return min(max(b, 10), 18)
}

func (s *gramSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// addGrams inserts every 4-gram of tok into s and reports whether the set
// still fits in maxBlockGrams; a set that does not is dropped by its
// caller.
func addGrams[T string | []byte](s *gramSet, tok T) bool {
	for i := 0; i+GramLen <= len(tok); i++ {
		if !s.add(gramHash(tok[i], tok[i+1], tok[i+2], tok[i+3])) {
			return false
		}
	}
	return true
}

// add inserts h and reports whether the set still fits in maxBlockGrams.
// The hash that would overflow it is not stored.
func (s *gramSet) add(h uint64) bool {
	if h == 0 {
		if !s.zero {
			if s.len() == maxBlockGrams {
				return false
			}
			s.zero = true
		}
		return true
	}
	mask := uint64(len(s.slots) - 1)
	for i := (h * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return true
		case 0:
			if s.len() == maxBlockGrams {
				return false
			}
			s.slots[i] = h
			if s.n++; 2*s.n > len(s.slots) {
				s.grow()
			}
			return true
		}
	}
}

func (s *gramSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, h := range old {
		if h == 0 {
			continue
		}
		i := (h * 0x9E3779B97F4A7C15) >> s.shift
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = h
	}
}

// bloomSize picks the bit count for n distinct grams under a byte
// budget: bloomBitsPerGram bits each, clamped to the budget, rounded up
// to a whole number of bytes, at least 64 bits so an empty or tiny
// block still rejects probes, capped at maxBloomBits.
func bloomSize(n, budgetBytes int) uint32 {
	bits := n * bloomBitsPerGram
	if b := budgetBytes * 8; bits > b {
		bits = b
	}
	if bits < 64 {
		bits = 64
	}
	if bits > maxBloomBits {
		bits = maxBloomBits
	}
	return uint32((bits + 7) &^ 7)
}

// bloomProbes picks k for n grams in m bits: the density optimum
// ln2·m/n (~0.693), clamped to [1, bloomK]. An unsaturated filter
// (m = 8n) lands on bloomK; a budget-squeezed one steps down so the
// filter does not fill solid.
func bloomProbes(n int, nbits uint32) uint8 {
	if n == 0 {
		return bloomK
	}
	k := (uint64(nbits)*693 + uint64(n)*500) / (uint64(n) * 1000)
	if k < 1 {
		return 1
	}
	if k > bloomK {
		return bloomK
	}
	return uint8(k)
}

// bloomSet sets k positions for hash h in a filter of nbits bits, via
// double hashing (the second hash is forced odd so its cycle covers the
// whole table when nbits is a power of two, and is harmlessly imperfect
// otherwise).
func bloomSet(bits []byte, nbits uint32, k uint8, h uint64) {
	h1, h2 := h, (h>>33)|1
	for i := uint64(0); i < uint64(k); i++ {
		pos := (h1 + i*h2) % uint64(nbits)
		bits[pos/8] |= 1 << (pos % 8)
	}
}

// bloomTest reports whether hash h may have been inserted. k and nbits
// come from the decoded section, so both are validated by the caller.
func bloomTest(bits []byte, nbits uint32, k uint8, h uint64) bool {
	h1, h2 := h, (h>>33)|1
	for i := uint64(0); i < uint64(k); i++ {
		pos := (h1 + i*h2) % uint64(nbits)
		if bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// buildBloom materializes a filter from a distinct-gram set within a
// byte budget. A nil set (scan overflow) yields no filter: nbits 0
// means "always admit".
func buildBloom(grams *gramSet, budgetBytes int) (nbits uint32, k uint8, bits []byte) {
	if grams == nil {
		return 0, 0, nil
	}
	n := grams.len()
	nbits = bloomSize(n, budgetBytes)
	k = bloomProbes(n, nbits)
	bits = make([]byte, nbits/8)
	for _, h := range grams.slots {
		if h != 0 {
			bloomSet(bits, nbits, k, h)
		}
	}
	if grams.zero {
		bloomSet(bits, nbits, k, 0)
	}
	return nbits, k, bits
}
