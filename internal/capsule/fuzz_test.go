package capsule

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadBox: arbitrary bytes must never panic, whatever opens must serve
// payloads without panicking, and a box of a retired revision is refused
// as ErrOldFormat, never read.
func FuzzReadBox(f *testing.F) {
	meta, payloads := sampleMeta()
	valid := WriteBox(meta, payloads, 0) // a DEFLATE directory
	f.Add(valid)
	// Retired prefixes — revisions 1 and 2, and the LZMA-lite directory
	// codec byte — and forged DEFLATE directories: trailed by a byte,
	// declaring a length over the expansion ceiling, inflating past their
	// declared length.
	enc := meta.encode(nil)
	f.Add(withDir(valid, 0, enc))
	f.Add(append([]byte("LGRPBOX1"), valid[len(BoxPrefix):]...))
	f.Add(append([]byte("LGRPBOX2"), valid[len(BoxPrefix):]...))
	f.Add(withDir(valid, CodecDeflate, append(forgeChunk(uint64(len(enc)), rawDeflate(enc, true)), 0)))
	f.Add(withDir(valid, CodecDeflate, forgeChunk(1<<40, rawDeflate(enc, true))))
	f.Add(withDir(valid, CodecDeflate, forgeChunk(uint64(len(enc))-1, rawDeflate(enc, true))))
	// Chunked capsules: a 2-byte target cuts every multi-row capsule but
	// the dictionary row by row.
	m, p := sampleMeta()
	f.Add(WriteBox(m, p, 2))
	f.Add([]byte(BoxMagic))
	f.Add([]byte(nil))
	f.Add(valid[:len(valid)/2])
	// Boxes the bounded decoder must reject: each encodes one metadata
	// field at a size no real log block can produce. Before size fields
	// were bounds-checked these drove giant allocations downstream.
	for _, mutate := range []func(m *Meta){
		func(m *Meta) { m.NumLines = 1 << 40 },
		func(m *Meta) { m.Capsules[0].Rows = 1 << 40 },
		func(m *Meta) { m.Capsules[0].Stamp.MaxLen = 1 << 40 },
		func(m *Meta) { m.Capsules[2].Width = 1 << 40 },
		func(m *Meta) { m.Groups[1].Vars[0].IndexWidth = 1 << 30 },
		func(m *Meta) { m.Groups[1].Vars[0].DictPatterns[0].Count = 1 << 40 },
		// A vacuous stamp over a sized payload: the decompress bound
		// derived from the stamp must reject the oversized payload.
		func(m *Meta) { m.Capsules[4].Stamp.MaxLen = 0 },
	} {
		m, p := sampleMeta()
		mutate(m)
		f.Add(WriteBox(m, p, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		box, err := ReadBox(data)
		if retired := errors.Is(CheckPrefix(data), ErrOldFormat); retired != errors.Is(err, ErrOldFormat) {
			t.Fatalf("retired prefix %v, ReadBox: %v", retired, err)
		}
		if err != nil {
			return
		}
		for i := range box.Meta.Capsules {
			box.Payload(i)
		}
		for _, m := range box.Meta.lineMaps() {
			m.Lines()
		}
	})
}

// FuzzLineMap: a Rice stream under any header must never panic or allocate
// beyond its own size, and what decodes is what the first-touch validation
// promises — the declared count of strictly ascending numbers below the
// limit, from exactly these bytes (the code is canonical, so re-encoding
// gives them back).
func FuzzLineMap(f *testing.F) {
	f.Add(appendRice(nil, []int{0, 2, 5, 9}, 1, 10), uint8(1), 4, 10)
	f.Add(appendRice(nil, []int{7, 4000, 4001, 70000}, 2, 70001), uint8(2), 4, 70001) // escaped gaps
	f.Add(appendRice(nil, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 0, 9), uint8(0), 9, 9)
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(0), 1, 1<<31-1) // ones all the way
	f.Add([]byte{0x00}, uint8(3), 9, 100)                       // more rows than bits
	f.Add([]byte(nil), uint8(0), 0, 0)
	f.Fuzz(func(t *testing.T, enc []byte, k uint8, rows, limit int) {
		lines, err := decodeRice(enc, uint(k), rows, limit)
		if err != nil {
			return
		}
		if len(lines) != rows || rows > 8*len(enc) {
			t.Fatalf("%d lines from %d bytes, header says %d", len(lines), len(enc), rows)
		}
		prev := -1
		for _, l := range lines {
			if l <= prev || l >= limit {
				t.Fatalf("line %d after %d under limit %d", l, prev, limit)
			}
			prev = l
		}
		if re := appendRice(nil, lines, uint(k), limit); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoded to %x, decoded from %x", re, enc)
		}
	})
}
