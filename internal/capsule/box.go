package capsule

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"loggrep/internal/lzma"
	"loggrep/internal/rtpattern"
)

// BoxMagic identifies a CapsuleBox stream: the one format WriteBox emits.
// Rev 2 keeps the row→line maps out of the LZMA'd metadata, as per-map Rice
// bitstreams that decode on first touch (see LineMap).
const BoxMagic = "LGRPBOX2"

// boxMagicV1 marks the previous revision, whose metadata section carried
// every line map as delta varints. ReadBox still opens it.
const boxMagicV1 = "LGRPBOX1"

// Flags recorded in a CapsuleBox header. They echo the compressor options a
// box was built with so the query engine adapts (ablation modes).
const (
	// FlagNoPadding marks variable-length capsules ("w/o fixed").
	FlagNoPadding uint64 = 1 << iota
	// FlagNoStamps marks boxes whose stamps are vacuous ("w/o stamp").
	FlagNoStamps
	// FlagStaticOnly marks LogGrep-SP boxes (no runtime patterns).
	FlagStaticOnly
)

// PatternElem is a serialized runtime-pattern element: a literal or a
// sub-variable with its stamp and, for real vectors, the Capsule that
// stores the sub-variable vector.
type PatternElem struct {
	Lit   string
	Sub   int // sub-variable index; -1 for a literal
	Stamp rtpattern.Stamp
	CapID int // capsule id of the sub-variable vector; -1 if stored inline
}

// DictPatternMeta is one runtime pattern of a nominal dictionary, with the
// count and padded length that let queries jump to its dictionary segment.
type DictPatternMeta struct {
	Elems  []PatternElem
	Count  int
	MaxLen int
}

// VarKind distinguishes variable-vector encodings.
type VarKind uint8

const (
	// RealVar vectors are decomposed into sub-variable Capsules by a
	// single runtime pattern, plus an optional outlier Capsule.
	RealVar VarKind = iota
	// NominalVar vectors are a dictionary Capsule plus an index Capsule.
	NominalVar
)

// VarMeta describes how one variable vector of a group is stored.
type VarMeta struct {
	Kind VarKind

	// Real vectors.
	Pattern  []PatternElem
	NumSubs  int
	OutCapID int   // -1 when every value matched the pattern
	OutRows  []int // ascending rows (within the vector) stored as outliers

	// Nominal vectors.
	DictCapID    int
	IndexCapID   int
	DictPatterns []DictPatternMeta
	IndexWidth   int
}

// TemplateElem is a serialized static-pattern element.
type TemplateElem struct {
	Lit string
	Var int // variable slot; -1 for a literal
}

// GroupMeta describes one static-pattern group.
type GroupMeta struct {
	Template []TemplateElem
	Lines    LineMap // original block line number of each entry
	Vars     []VarMeta
}

// Rows returns the number of entries in the group.
func (g *GroupMeta) Rows() int { return g.Lines.Rows() }

// Meta is the metadata section of a CapsuleBox.
type Meta struct {
	NumLines     int
	Flags        uint64
	Groups       []GroupMeta
	OutlierCapID int     // capsule holding unparsed raw lines; -1 if none
	OutlierLines LineMap // their original line numbers
	Capsules     []Info
}

// lineMaps lists the box's line maps in stored order: one per group, then
// the outlier lines'.
func (m *Meta) lineMaps() []*LineMap {
	maps := make([]*LineMap, 0, len(m.Groups)+1)
	for gi := range m.Groups {
		maps = append(maps, &m.Groups[gi].Lines)
	}
	return append(maps, &m.OutlierLines)
}

// encode serializes the directory: everything but the line maps, of which
// it records the row counts only.
func (m *Meta) encode() []byte {
	var e encbuf
	e.uint(uint64(m.NumLines))
	e.uint(m.Flags)
	e.int(m.OutlierCapID)
	e.uint(uint64(m.OutlierLines.Rows()))
	e.uint(uint64(len(m.Capsules)))
	for _, c := range m.Capsules {
		e.uint(uint64(c.Kind))
		e.uint(uint64(c.Stamp.TypeMask))
		e.uint(uint64(c.Stamp.MaxLen))
		e.uint(uint64(c.Stamp.MinLen))
		e.uint(uint64(c.Rows))
		e.uint(uint64(c.Width))
		e.uint(uint64(c.ChunkRows))
	}
	e.uint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		e.uint(uint64(len(g.Template)))
		for _, t := range g.Template {
			e.int(t.Var)
			if t.Var < 0 {
				e.str(t.Lit)
			}
		}
		e.uint(uint64(g.Rows()))
		e.uint(uint64(len(g.Vars)))
		for _, v := range g.Vars {
			e.uint(uint64(v.Kind))
			switch v.Kind {
			case RealVar:
				encodeElems(&e, v.Pattern)
				e.uint(uint64(v.NumSubs))
				e.int(v.OutCapID)
				e.ascInts(v.OutRows)
			case NominalVar:
				e.int(v.DictCapID)
				e.int(v.IndexCapID)
				e.uint(uint64(v.IndexWidth))
				e.uint(uint64(len(v.DictPatterns)))
				for _, dp := range v.DictPatterns {
					encodeElems(&e, dp.Elems)
					e.uint(uint64(dp.Count))
					e.uint(uint64(dp.MaxLen))
				}
			}
		}
	}
	return e.b
}

func encodeElems(e *encbuf, elems []PatternElem) {
	e.uint(uint64(len(elems)))
	for _, el := range elems {
		e.int(el.Sub)
		if el.Sub < 0 {
			e.str(el.Lit)
		} else {
			e.uint(uint64(el.Stamp.TypeMask))
			e.uint(uint64(el.Stamp.MaxLen))
			e.uint(uint64(el.Stamp.MinLen))
			e.int(el.CapID)
		}
	}
}

func decodeElems(d *decbuf) []PatternElem {
	n := d.length(2)
	elems := make([]PatternElem, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var el PatternElem
		el.Sub = d.int()
		if el.Sub < 0 {
			el.Lit = d.str()
			el.CapID = -1
		} else {
			el.Stamp.TypeMask = uint8(d.uint())
			el.Stamp.MaxLen = d.size()
			el.Stamp.MinLen = d.size()
			el.CapID = d.int()
		}
		elems = append(elems, el)
	}
	return elems
}

// decodeMeta parses the metadata section. A rev-1 section carries the line
// maps inline; a rev-2 directory carries their row counts and readLineMaps
// attaches the bitstreams.
func decodeMeta(raw []byte, rev1 bool) (*Meta, error) {
	d := &decbuf{b: raw}
	m := &Meta{}
	lineMap := func() LineMap {
		if !rev1 {
			return LineMap{rows: d.size()}
		}
		// Decoded here, so validated here — what a rev-2 map's first touch
		// checks: strictly ascending, inside the block.
		lines := d.ascInts()
		for i, l := range lines {
			if l < 0 || l >= m.NumLines || (i > 0 && l <= lines[i-1]) {
				d.fail("line map out of order or range")
				break
			}
		}
		return NewLineMap(lines)
	}
	m.NumLines = d.size()
	// Every rev-1 line costs at least one encoded byte in the group line
	// maps or the outlier line list, so a line count beyond the metadata
	// size is forged — reject it before it sizes the line index allocation.
	// (readLineMaps bounds a rev-2 count by the bitstreams the same way.)
	if rev1 && d.err == nil && m.NumLines > len(raw) {
		d.fail("implausible line count")
	}
	m.Flags = d.uint()
	m.OutlierCapID = d.int()
	m.OutlierLines = lineMap()
	nc := d.length(4)
	m.Capsules = make([]Info, 0, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		var c Info
		c.Kind = Kind(d.uint())
		c.Stamp.TypeMask = uint8(d.uint())
		c.Stamp.MaxLen = d.size()
		c.Stamp.MinLen = d.size()
		c.Rows = d.size()
		c.Width = d.size()
		c.ChunkRows = d.size()
		m.Capsules = append(m.Capsules, c)
	}
	ng := d.length(4)
	m.Groups = make([]GroupMeta, 0, ng)
	for i := 0; i < ng && d.err == nil; i++ {
		var g GroupMeta
		nt := d.length(2)
		g.Template = make([]TemplateElem, 0, nt)
		for j := 0; j < nt && d.err == nil; j++ {
			var t TemplateElem
			t.Var = d.int()
			if t.Var < 0 {
				t.Lit = d.str()
			}
			g.Template = append(g.Template, t)
		}
		g.Lines = lineMap()
		nv := d.length(2)
		g.Vars = make([]VarMeta, 0, nv)
		for j := 0; j < nv && d.err == nil; j++ {
			var v VarMeta
			v.Kind = VarKind(d.uint())
			switch v.Kind {
			case RealVar:
				v.Pattern = decodeElems(d)
				v.NumSubs = d.size()
				v.OutCapID = d.int()
				v.OutRows = d.ascInts()
				v.DictCapID, v.IndexCapID = -1, -1
			case NominalVar:
				v.DictCapID = d.int()
				v.IndexCapID = d.int()
				v.IndexWidth = d.size()
				ndp := d.length(3)
				v.DictPatterns = make([]DictPatternMeta, 0, ndp)
				for k := 0; k < ndp && d.err == nil; k++ {
					var dp DictPatternMeta
					dp.Elems = decodeElems(d)
					dp.Count = d.size()
					dp.MaxLen = d.size()
					v.DictPatterns = append(v.DictPatterns, dp)
				}
				v.OutCapID = -1
			default:
				d.fail("unknown variable kind")
			}
			g.Vars = append(g.Vars, v)
		}
		m.Groups = append(m.Groups, g)
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// WriteBox assembles a CapsuleBox: the LZMA-compressed directory, the
// line-map section, then one blob per Capsule payload (payloads[i] belongs
// to meta.Capsules[i]).
// chunkTarget > 0 cuts large capsules into ~chunkTarget-byte chunks that
// compress independently (see chunk.go); 0 compresses each capsule whole,
// as the paper does.
func WriteBox(meta *Meta, payloads [][]byte, chunkTarget int) []byte {
	if len(payloads) != len(meta.Capsules) {
		panic("capsule: payload count does not match capsule directory")
	}
	// Settle the chunking first: it records ChunkRows in the directory,
	// which the metadata section ahead of the blobs serializes.
	raw := 0
	for i, p := range payloads {
		if rows := chunkRows(&meta.Capsules[i], p, chunkTarget); rows > 0 {
			meta.Capsules[i].ChunkRows = rows
		}
		raw += len(p)
	}
	mc := lzma.Compress(meta.encode())
	// Room for payloads that pack 2:1; append grows it if they do worse.
	out := make([]byte, 0, len(BoxMagic)+len(mc)+raw/2+3*binary.MaxVarintLen64)
	out = append(out, BoxMagic...)
	out = binary.AppendUvarint(out, uint64(len(mc)))
	out = append(out, mc...)
	out = appendLineMaps(out, meta.lineMaps(), meta.NumLines)
	out = binary.AppendUvarint(out, uint64(len(payloads)))
	for i, p := range payloads {
		out = appendBlob(out, &meta.Capsules[i], p, chunkTarget)
	}
	return out
}

// appendLineMaps appends the line-map section of a block of numLines lines:
// its byte length, then a table of (Rice parameter byte, stream length
// uvarint) per map, then the streams back to back. Each map gets the
// parameter that codes it smallest; a map that came out of a rev-2 box is
// copied as stored.
func appendLineMaps(dst []byte, maps []*LineMap, numLines int) []byte {
	var table, streams []byte
	for _, m := range maps {
		k, start := uint(m.k), len(streams)
		if m.enc != nil {
			streams = append(streams, m.enc...)
		} else {
			k = riceParam(m.lines, numLines)
			streams = appendRice(streams, m.lines, k, numLines)
		}
		table = append(table, byte(k))
		table = binary.AppendUvarint(table, uint64(len(streams)-start))
	}
	dst = binary.AppendUvarint(dst, uint64(len(table)+len(streams)))
	dst = append(dst, table...)
	return append(dst, streams...)
}

// readLineMaps attaches a rev-2 line-map section to the maps whose row
// counts the directory declared. Nothing is decoded; the checks are the ones
// that bound what a later decode may allocate.
func readLineMaps(meta *Meta, sec []byte) error {
	bad := func(what string) error { return fmt.Errorf("%w: line maps: %s", ErrCorrupt, what) }
	// A line costs at least one bit of some map's stream.
	if meta.NumLines > 8*len(sec) {
		return bad("implausible line count")
	}
	maps := meta.lineMaps()
	lens := make([]int, len(maps))
	pos := 0
	for i, m := range maps {
		if pos >= len(sec) {
			return bad("table truncated")
		}
		m.k = sec[pos]
		ln, n := binary.Uvarint(sec[pos+1:])
		if n <= 0 || ln > uint64(len(sec)) {
			return bad("bad stream length")
		}
		pos += 1 + n
		lens[i] = int(ln)
	}
	for i, m := range maps {
		if lens[i] > len(sec)-pos {
			return bad("stream overruns section")
		}
		m.enc, m.limit = sec[pos:pos+lens[i]], meta.NumLines
		pos += lens[i]
		if m.k > maxRiceParam || m.rows > 8*lens[i] || (m.rows == 0 && lens[i] != 0) {
			return bad("implausible map header")
		}
	}
	if pos != len(sec) {
		return bad("trailing bytes")
	}
	return nil
}

// Box is a read-opened CapsuleBox. Payloads decompress lazily and are
// cached — the whole point of the format is that most queries touch few
// Capsules.
type Box struct {
	Meta       *Meta
	refs       []blobRef
	cache      map[int][]byte
	chunkCache map[[2]int][]byte
	// Decompressions counts capsule payload decompressions, for the
	// evaluation harness ("capsules touched"). Chunked fetches count one
	// per chunk.
	Decompressions int

	metaCompLen int // compressed metadata section size
	metaRawLen  int // decompressed metadata size
	lineMapLen  int // line-map section size (0 in a rev-1 box)
}

// IsBox reports whether data begins with a CapsuleBox magic, of this or
// the previous format revision.
func IsBox(data []byte) bool {
	return bytes.HasPrefix(data, []byte(BoxMagic)) || bytes.HasPrefix(data, []byte(boxMagicV1))
}

// ReadBox parses a CapsuleBox produced by WriteBox, of this or the previous
// format revision.
func ReadBox(data []byte) (*Box, error) {
	if !IsBox(data) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	magic := string(data[:len(BoxMagic)])
	rest := data[len(BoxMagic):]
	mlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < mlen {
		return nil, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	rest = rest[n:]
	metaRaw, err := lzma.Decompress(rest[:mlen])
	if err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	rest = rest[mlen:]
	meta, err := decodeMeta(metaRaw, magic == boxMagicV1)
	if err != nil {
		return nil, err
	}
	var lmlen uint64
	if magic == BoxMagic {
		lmlen, n = binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < lmlen {
			return nil, fmt.Errorf("%w: bad line-map section length", ErrCorrupt)
		}
		if err := readLineMaps(meta, rest[n:n+int(lmlen)]); err != nil {
			return nil, err
		}
		rest = rest[n+int(lmlen):]
	}
	nb, n := binary.Uvarint(rest)
	if n <= 0 || nb != uint64(len(meta.Capsules)) {
		return nil, fmt.Errorf("%w: capsule count mismatch", ErrCorrupt)
	}
	rest = rest[n:]
	refs := make([]blobRef, nb)
	for i := range refs {
		br, consumed, err := decodeBlobRef(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: capsule %d: %v", ErrCorrupt, i, err)
		}
		if br.rowsPerChunk != meta.Capsules[i].ChunkRows && len(br.chunks) > 1 {
			return nil, fmt.Errorf("%w: capsule %d chunk rows mismatch", ErrCorrupt, i)
		}
		br.encLen = consumed
		refs[i] = br
		rest = rest[consumed:]
	}
	return &Box{
		Meta: meta, refs: refs,
		cache: make(map[int][]byte), chunkCache: make(map[[2]int][]byte),
		metaCompLen: int(mlen), metaRawLen: len(metaRaw), lineMapLen: int(lmlen),
	}, nil
}

// MetaSizes returns the compressed and decompressed byte size of the box's
// metadata section (templates, runtime patterns, capsule directory; in a
// rev-1 box the line maps too) — the "parse/extract" share of the packed
// bytes.
func (b *Box) MetaSizes() (compressed, raw int) { return b.metaCompLen, b.metaRawLen }

// LineMapBytes returns the size of the box's line-map section (table and
// Rice streams); 0 for a rev-1 box, whose maps sit in the metadata section.
func (b *Box) LineMapBytes() int { return b.lineMapLen }

// BlobSize returns the encoded size of capsule id's blob inside the box:
// the compressed chunks plus their chunk framing. Summing BlobSize over
// all capsules plus MetaSizes' compressed size plus LineMapBytes plus the
// box header framing reconstructs the exact box file size (anatomy
// accounting relies on it).
func (b *Box) BlobSize(id int) int {
	if id < 0 || id >= len(b.refs) {
		return 0
	}
	return b.refs[id].encLen
}

// payloadBound returns a sound upper bound on the decompressed size of a
// capsule payload holding rows values: stamps record the true maximal value
// length even in ablation modes, padded widths never exceed max(1, MaxLen),
// and variable-length packing adds at most one delimiter per value. A
// corrupt LZMA stream therefore cannot expand beyond what the capsule
// directory promises.
func payloadBound(rows int, info *Info) uint64 {
	w := info.Width
	if w < max(1, info.Stamp.MaxLen) {
		w = max(1, info.Stamp.MaxLen)
	}
	return uint64(rows) * uint64(w+1)
}

// Payload returns the whole decompressed payload of capsule id, caching
// it. For chunked capsules every chunk is decompressed and concatenated
// (delimiter-joined for var-width capsules).
func (b *Box) Payload(id int) ([]byte, error) {
	if id < 0 || id >= len(b.refs) {
		return nil, fmt.Errorf("%w: capsule id %d out of range", ErrCorrupt, id)
	}
	if p, ok := b.cache[id]; ok {
		return p, nil
	}
	ref := &b.refs[id]
	info := b.Meta.Capsules[id]
	var p []byte
	if len(ref.chunks) == 1 {
		var err error
		p, err = lzma.DecompressLimit(ref.chunks[0], payloadBound(info.Rows, &info))
		if err != nil {
			return nil, fmt.Errorf("%w: capsule %d: %v", ErrCorrupt, id, err)
		}
		b.Decompressions++
	} else {
		for ci := range ref.chunks {
			ch, err := b.PayloadChunk(id, ci)
			if err != nil {
				return nil, err
			}
			if ci > 0 && info.Width == 0 {
				p = append(p, 0x0A) // strmatch.Delim between var-width chunks
			}
			p = append(p, ch...)
		}
	}
	if info.Width > 0 && len(p) != info.Rows*info.Width {
		return nil, fmt.Errorf("%w: capsule %d: payload %d bytes, want %d×%d", ErrCorrupt, id, len(p), info.Rows, info.Width)
	}
	b.cache[id] = p
	return p, nil
}

// ChunkCount returns the number of chunks of capsule id (1 = unchunked).
func (b *Box) ChunkCount(id int) int { return len(b.refs[id].chunks) }

// PayloadChunk decompresses one chunk of a chunked capsule, caching it.
// Chunk ci covers rows [ci*ChunkRows, min((ci+1)*ChunkRows, Rows)).
func (b *Box) PayloadChunk(id, ci int) ([]byte, error) {
	if id < 0 || id >= len(b.refs) {
		return nil, fmt.Errorf("%w: capsule id %d out of range", ErrCorrupt, id)
	}
	ref := &b.refs[id]
	if ci < 0 || ci >= len(ref.chunks) {
		return nil, fmt.Errorf("%w: capsule %d chunk %d out of range", ErrCorrupt, id, ci)
	}
	key := [2]int{id, ci}
	if p, ok := b.chunkCache[key]; ok {
		return p, nil
	}
	info := b.Meta.Capsules[id]
	rowsBound := info.Rows
	if len(ref.chunks) > 1 && info.ChunkRows > 0 {
		if r := min(info.ChunkRows, info.Rows-ci*info.ChunkRows); r >= 0 {
			rowsBound = r
		}
	}
	p, err := lzma.DecompressLimit(ref.chunks[ci], payloadBound(rowsBound, &info))
	if err != nil {
		return nil, fmt.Errorf("%w: capsule %d chunk %d: %v", ErrCorrupt, id, ci, err)
	}
	if info.Width > 0 && len(ref.chunks) > 1 {
		rowsIn := min(info.ChunkRows, info.Rows-ci*info.ChunkRows)
		if rowsIn < 0 || len(p) != rowsIn*info.Width {
			return nil, fmt.Errorf("%w: capsule %d chunk %d: %d bytes", ErrCorrupt, id, ci, len(p))
		}
	}
	b.chunkCache[key] = p
	b.Decompressions++
	return p, nil
}

// DropCache releases decompressed payloads and decoded line maps (used
// between benchmark iterations to model cold queries).
func (b *Box) DropCache() {
	b.cache = make(map[int][]byte)
	b.chunkCache = make(map[[2]int][]byte)
	b.Decompressions = 0
	for _, m := range b.Meta.lineMaps() {
		if m.enc != nil {
			m.lines = nil
		}
	}
}

// CacheSnapshot exposes the decompressed payload cache (test/diagnostics).
func (b *Box) CacheSnapshot() map[int][]byte { return b.cache }
