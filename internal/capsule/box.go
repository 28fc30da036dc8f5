package capsule

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"loggrep/internal/rtpattern"
)

// BoxMagic identifies a CapsuleBox stream: the one format WriteBox emits
// and ReadBox reads. It records a codec byte per capsule directory entry
// and one for the directory itself, and every section is DEFLATE.
const BoxMagic = "LGRPBOX3"

// BoxPrefix begins every box WriteBox writes: the magic, then the
// directory's codec byte.
const BoxPrefix = BoxMagic + string(rune(CodecDeflate))

// retiredPrefixes begin the boxes earlier writers wrote: revisions 1 and 2
// (LZMA-lite throughout) and revision 3 with an LZMA-lite directory.
// internal/legacy reads them; `loggrep upgrade` rewrites them.
var retiredPrefixes = []string{"LGRPBOX1", "LGRPBOX2", BoxMagic + "\x00"}

// ErrOldFormat reports data in an on-disk format the readers no longer
// open: a box of a retired revision here, a v1 archive in package
// archive. It is never damage; `loggrep upgrade` rewrites such a file into
// the current format.
var ErrOldFormat = errors.New("retired on-disk format: rewrite it with `loggrep upgrade IN OUT`")

// CheckPrefix reports whether data begins as a box of the current format:
// nil when it does, ErrOldFormat when it begins as a retired revision's,
// ErrCorrupt otherwise. It reads the first len(BoxPrefix) bytes only.
func CheckPrefix(data []byte) error {
	if len(data) >= len(BoxPrefix) && string(data[:len(BoxPrefix)]) == BoxPrefix {
		return nil
	}
	for _, p := range retiredPrefixes {
		if len(data) >= len(p) && string(data[:len(p)]) == p {
			return fmt.Errorf("capsule: %q box: %w", p, ErrOldFormat)
		}
	}
	return fmt.Errorf("%w: bad magic", ErrCorrupt)
}

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

// WriteBox assembles a CapsuleBox: the directory codec byte, the
// DEFLATE-coded directory, the line-map section, then one DEFLATE blob per
// Capsule payload (payloads[i] belongs to meta.Capsules[i]).
// chunkTarget > 0 cuts large capsules into ~chunkTarget-byte chunks that
// compress independently (see chunk.go); 0 compresses each capsule whole,
// as the paper does.
func WriteBox(meta *Meta, payloads [][]byte, chunkTarget int) []byte {
	if len(payloads) != len(meta.Capsules) {
		panic("capsule: payload count does not match capsule directory")
	}
	// Settle codec and chunking first: the directory ahead of the blobs
	// records both.
	raw := 0
	for i, p := range payloads {
		c := &meta.Capsules[i]
		c.Codec = CodecDeflate
		if rows := chunkRows(c, p, chunkTarget); rows > 0 {
			c.ChunkRows = rows
		}
		raw += len(p)
	}
	// The directory is DEFLATE too, one chunk through the same writer.
	// LZMA-lite would pack it 18.7 % smaller (199 951 against 237 331
	// bytes over the 37 loggen types at 2 MiB blocks, +0.4 % of the box),
	// but range-decoding it was two thirds of a cold ReadBox.
	z := deflaters.Get().(*deflater)
	defer deflaters.Put(z)
	z.dir = meta.encode(z.dir[:0])
	dir := z.chunk(z.dir)
	// Room for payloads that pack 2:1; append grows it if they do worse.
	out := make([]byte, 0, len(BoxMagic)+1+len(dir)+raw/2+3*binary.MaxVarintLen64)
	out = append(out, BoxMagic...)
	out = append(out, byte(CodecDeflate))
	out = binary.AppendUvarint(out, uint64(len(dir)))
	out = append(out, dir...)
	out = appendLineMaps(out, meta.lineMaps(), meta.NumLines)
	out = binary.AppendUvarint(out, uint64(len(payloads)))
	for i, p := range payloads {
		out = z.appendBlob(out, &meta.Capsules[i], p, chunkTarget)
	}
	return out
}

// appendLineMaps appends the line-map section of a block of numLines lines:
// its byte length, then a table of (Rice parameter byte, stream length
// uvarint) per map, then the streams back to back. Each map gets the
// parameter that codes it smallest; a map that came out of a stored box is
// copied as stored. Every length is known before a stream is coded,
// so the section is written straight into dst.
func appendLineMaps(dst []byte, maps []*LineMap, numLines int) []byte {
	type stream struct {
		k    uint
		size int
	}
	plan := make([]stream, len(maps))
	size := 0
	for i, m := range maps {
		if m.enc != nil {
			plan[i] = stream{uint(m.k), len(m.enc)}
		} else {
			plan[i].k, plan[i].size = riceParam(m.lines, numLines)
		}
		size += 1 + uvarintLen(uint64(plan[i].size)) + plan[i].size
	}
	dst = binary.AppendUvarint(slices.Grow(dst, uvarintLen(uint64(size))+size), uint64(size))
	for _, p := range plan {
		dst = binary.AppendUvarint(append(dst, byte(p.k)), uint64(p.size))
	}
	for i, m := range maps {
		if m.enc != nil {
			dst = append(dst, m.enc...)
		} else {
			dst = appendRice(dst, m.lines, plan[i].k, numLines)
		}
	}
	return dst
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ReadLineMaps attaches a line-map section, laid out as WriteBox lays it
// out, to meta's maps, which hold rows[i] numbers each in stored order: one
// per group, then the outlier lines'. internal/legacy reads the sections of
// retired boxes through it.
func ReadLineMaps(meta *Meta, rows []int, sec []byte) error {
	maps := meta.lineMaps()
	if len(rows) != len(maps) {
		return fmt.Errorf("%w: line maps: %d row counts for %d maps", ErrCorrupt, len(rows), len(maps))
	}
	for i, m := range maps {
		*m = LineMap{rows: rows[i]}
	}
	return readLineMaps(meta, sec)
}

// readLineMaps attaches a line-map section to the maps whose row counts
// the directory declared. Nothing is decoded; the checks are the ones that
// bound what a later decode may allocate.
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
// Capsules. A Box is not safe for concurrent use: its caches are shared by
// every decode.
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
	lineMapLen  int // line-map section size
}

// ReadBox parses a CapsuleBox produced by WriteBox. A box of a retired
// revision is ErrOldFormat, anything else it cannot read ErrCorrupt.
func ReadBox(data []byte) (*Box, error) {
	if err := CheckPrefix(data); err != nil {
		return nil, err
	}
	b := &Box{}
	rest := data[len(BoxPrefix):]
	mlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < mlen {
		return nil, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	rest = rest[n:]
	meta, metaRawLen, err := decodeDir(rest[:mlen])
	if err != nil {
		return nil, err
	}
	rest = rest[mlen:]
	lmlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < lmlen {
		return nil, fmt.Errorf("%w: bad line-map section length", ErrCorrupt)
	}
	if err := readLineMaps(meta, rest[n:n+int(lmlen)]); err != nil {
		return nil, err
	}
	rest = rest[n+int(lmlen):]
	nb, n := binary.Uvarint(rest)
	if n <= 0 || nb != uint64(len(meta.Capsules)) {
		return nil, fmt.Errorf("%w: capsule count mismatch", ErrCorrupt)
	}
	rest = rest[n:]
	refs := make([]blobRef, nb)
	chunks := make([][]byte, 0, nb) // one per capsule unless chunked
	for i := range refs {
		br, consumed, err := decodeBlobRef(rest, &chunks)
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
	b.Meta, b.refs = meta, refs
	b.cache, b.chunkCache = make(map[int][]byte), make(map[[2]int][]byte)
	b.metaCompLen, b.metaRawLen, b.lineMapLen = int(mlen), metaRawLen, int(lmlen)
	return b, nil
}

// decode decodes one DEFLATE chunk of capsule info that holds rows rows,
// emitting at most chunkLimit's bytes; a chunk of a fixed-width capsule
// must declare exactly that many. (The directory decodes through
// decodeDir.)
func (b *Box) decode(info *Info, chunk []byte, rows int) ([]byte, error) {
	limit, exact := chunkLimit(rows, info)
	dd := getDirDecoder()
	p, err := dd.z.decodeInto(nil, chunk, limit, exact)
	putDirDecoder(dd)
	return p, err
}

// MetaSizes returns the compressed and decompressed byte size of the box's
// metadata section (templates, runtime patterns, capsule directory) — the
// "parse/extract" share of the packed bytes.
func (b *Box) MetaSizes() (compressed, raw int) { return b.metaCompLen, b.metaRawLen }

// LineMapBytes returns the size of the box's line-map section (table and
// Rice streams).
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
// corrupt stream therefore cannot expand beyond what the capsule directory
// promises.
func payloadBound(rows int, info *Info) uint64 {
	w := info.Width
	if w < max(1, info.Stamp.MaxLen) {
		w = max(1, info.Stamp.MaxLen)
	}
	return uint64(rows) * uint64(w+1)
}

// chunkLimit returns what rows rows of capsule info decode to: exactly
// rows×Width bytes for a fixed-width capsule, at most payloadBound for a
// variable-width one.
func chunkLimit(rows int, info *Info) (limit uint64, exact bool) {
	if info.Width > 0 {
		return uint64(rows) * uint64(info.Width), true
	}
	return payloadBound(rows, info), false
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
		p, err = b.decode(&info, ref.chunks[0], info.Rows)
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
	p, err := b.decode(&info, ref.chunks[ci], rowsBound)
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
