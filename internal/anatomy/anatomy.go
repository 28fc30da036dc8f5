// Package anatomy decodes CapsuleBoxes and archives into a byte-level
// anatomy report: where every packed byte of the file lives (metadata,
// capsule blobs, framing), which compression stage each raw byte was
// absorbed by (parse/extract/assemble/pack), and per-group/per-capsule
// statistics — padding overhead, value entropy, stamp type mix, and
// estimated stamp selectivity. It is the §2.2/§6.3 measurement tooling of
// the paper turned on the operator's own data, surfaced as `loggrep stats`.
package anatomy

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"loggrep/internal/archive"
	"loggrep/internal/capsule"
	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// CapsuleStats is the anatomy of one capsule.
type CapsuleStats struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Rows   int    `json:"rows"`
	Width  int    `json:"width"` // padded width; 0 = variable length
	Chunks int    `json:"chunks"`

	// Stamp mix: which of the six character classes the values contain,
	// the length window, and the estimated selectivity — the probability
	// that the stamp prunes a random two-character-class probe, i.e.
	// 1 - (t/6)·((t-1)/5) for t present classes.
	StampClasses string  `json:"stamp_classes"`
	StampMinLen  int     `json:"stamp_min_len"`
	StampMaxLen  int     `json:"stamp_max_len"`
	Selectivity  float64 `json:"stamp_selectivity"`

	PackedBytes  int `json:"packed_bytes"`  // compressed blob incl chunk framing
	PayloadBytes int `json:"payload_bytes"` // decompressed payload
	ValueBytes   int `json:"value_bytes"`   // payload minus padding/delimiters
	PaddingBytes int `json:"padding_bytes"`

	// EntropyBits is the Shannon entropy of the decompressed payload in
	// bits per byte (0 = constant, 8 = incompressible).
	EntropyBits float64 `json:"entropy_bits_per_byte"`
}

// GroupStats is the anatomy of one static-pattern group.
type GroupStats struct {
	Index        int    `json:"index"`
	Template     string `json:"template"`
	Rows         int    `json:"rows"`
	RealVars     int    `json:"real_vars"`
	NominalVars  int    `json:"nominal_vars"`
	Capsules     []int  `json:"capsules"`
	PackedBytes  int    `json:"packed_bytes"`
	PayloadBytes int    `json:"payload_bytes"`
}

// StageBytes attributes bytes to one compression stage. The raw column
// partitions the original log (template literals to parse, runtime-pattern
// literals to extract, stored values to assemble); the packed column
// partitions the output file (metadata, capsule blobs, framing) and sums
// exactly to the file size.
type StageBytes struct {
	Stage       string `json:"stage"`
	RawBytes    int    `json:"raw_bytes"`
	PackedBytes int    `json:"packed_bytes"`
	Note        string `json:"note,omitempty"`
}

// BoxStats is the anatomy of one CapsuleBox (one block).
type BoxStats struct {
	NumLines     int            `json:"num_lines"`
	Flags        []string       `json:"flags,omitempty"`
	TotalBytes   int            `json:"total_bytes"`
	RawAccounted int            `json:"raw_accounted_bytes"`
	PayloadBytes int            `json:"payload_bytes"`
	PaddingBytes int            `json:"padding_bytes"`
	Stages       []StageBytes   `json:"stages"`
	Groups       []GroupStats   `json:"groups"`
	Capsules     []CapsuleStats `json:"capsules"`
	OutlierLines int            `json:"outlier_lines"`
}

// BlockStats is one archive block's anatomy plus its frame-level metadata.
type BlockStats struct {
	Index     int      `json:"index"`
	FirstLine int      `json:"first_line"`
	NumLines  int      `json:"num_lines"`
	RawBytes  int      `json:"raw_bytes"` // 0 when unknown (bare box)
	Stamp     string   `json:"stamp,omitempty"`
	Error     string   `json:"error,omitempty"`
	Box       BoxStats `json:"box"`
}

// KindAgg aggregates capsule statistics by kind across all blocks.
type KindAgg struct {
	Kind         string `json:"kind"`
	Count        int    `json:"count"`
	PackedBytes  int    `json:"packed_bytes"`
	PayloadBytes int    `json:"payload_bytes"`
	ValueBytes   int    `json:"value_bytes"`
	PaddingBytes int    `json:"padding_bytes"`
}

// IndexStats describes an archive's optional block-skipping index
// sections (internal/blockindex): the per-block gram blooms, the token
// postings table, and any sections that were present but damaged.
type IndexStats struct {
	BloomBytes    int `json:"bloom_bytes"`
	PostingsBytes int `json:"postings_bytes"`
	Blocks        int `json:"blocks"`
	Tokens        int `json:"tokens"`
	Damaged       int `json:"damaged_sections,omitempty"`
}

// Report is the full anatomy of a box or archive file.
type Report struct {
	// Format is "box", "archive-v1", or "archive-v2".
	Format     string `json:"format"`
	TotalBytes int    `json:"total_bytes"`
	// RawBytes is the original log size: frame metadata for archives,
	// the accounted raw coverage for a bare box (which records no raw
	// size).
	RawBytes       int          `json:"raw_bytes"`
	NumLines       int          `json:"num_lines"`
	DamagedRegions int          `json:"damaged_regions"`
	Stages         []StageBytes `json:"stages"` // summed across blocks
	Kinds          []KindAgg    `json:"kinds"`
	PaddingBytes   int          `json:"padding_bytes"`
	PayloadBytes   int          `json:"payload_bytes"`
	Blocks         []BlockStats `json:"blocks"`
	// Index describes the block-skipping index sections; nil when the
	// file has none (bare box, v1 archive, -no-index writer).
	Index *IndexStats `json:"index,omitempty"`
}

// Inspect decodes a CapsuleBox or archive and returns its anatomy. Both go
// through archive.Open, which serves a bare box, of either format
// revision, as a one-block archive; what stays box-specific is the format
// label, a raw size re-derived from the capsules (a box records none) and
// no block stamp (a box has none).
func Inspect(data []byte) (*Report, error) {
	a, err := archive.Open(data)
	if err != nil {
		return nil, err
	}
	bare := capsule.IsBox(data)
	format := "archive-v2"
	switch {
	case bare:
		format = "box"
	case len(data) >= len(archive.MagicV1) && string(data[:len(archive.MagicV1)]) == archive.MagicV1:
		format = "archive-v1"
	}
	rep := &Report{
		Format:         format,
		TotalBytes:     len(data),
		RawBytes:       a.RawBytes(),
		NumLines:       a.NumLines(),
		DamagedRegions: len(a.Damage()),
	}
	boxBytes := 0
	for _, bi := range a.BlockInfos() {
		blk := BlockStats{
			Index:     bi.Index,
			FirstLine: bi.FirstLine,
			NumLines:  bi.NumLines,
			RawBytes:  bi.RawBytes,
		}
		if !bare {
			blk.Stamp = fmt.Sprintf("[%s] maxlen=%d", classesString(bi.Stamp.TypeMask), bi.Stamp.MaxLen)
		}
		boxBytes += len(bi.Box)
		bs, err := inspectBox(bi.Box)
		if err != nil {
			blk.Error = err.Error()
			rep.DamagedRegions++
		} else {
			blk.Box = *bs
		}
		rep.Blocks = append(rep.Blocks, blk)
	}
	if bare {
		rep.RawBytes = rep.Blocks[0].Box.RawAccounted
	}
	// Everything outside the block payloads and the index sections is
	// frame overhead: magic, headers, terminator — plus any damaged
	// regions being skipped over. Healthy index sections get their own
	// stage so the packed column still sums exactly to the file size.
	ixStats := a.IndexStats()
	indexBytes := ixStats.TotalBytes()
	rep.finish(len(data) - boxBytes - indexBytes)
	if indexBytes > 0 || ixStats.Damaged > 0 {
		rep.Index = &IndexStats{
			BloomBytes:    ixStats.BloomBytes,
			PostingsBytes: ixStats.PostingsBytes,
			Blocks:        ixStats.Blocks,
			Tokens:        ixStats.Tokens,
			Damaged:       ixStats.Damaged,
		}
	}
	if indexBytes > 0 {
		rep.Stages = append(rep.Stages, StageBytes{
			Stage:       "index",
			PackedBytes: indexBytes,
			Note:        "block-skipping index: per-block gram blooms + token postings",
		})
	}
	return rep, nil
}

// finish sums the per-block stages and kinds into the report, appending
// the archive-level framing bytes to the framing stage.
func (r *Report) finish(archiveFraming int) {
	stageIdx := map[string]int{}
	kindIdx := map[string]int{}
	for _, blk := range r.Blocks {
		r.PaddingBytes += blk.Box.PaddingBytes
		r.PayloadBytes += blk.Box.PayloadBytes
		for _, sg := range blk.Box.Stages {
			i, ok := stageIdx[sg.Stage]
			if !ok {
				i = len(r.Stages)
				stageIdx[sg.Stage] = i
				r.Stages = append(r.Stages, StageBytes{Stage: sg.Stage, Note: sg.Note})
			}
			r.Stages[i].RawBytes += sg.RawBytes
			r.Stages[i].PackedBytes += sg.PackedBytes
		}
		for _, cs := range blk.Box.Capsules {
			i, ok := kindIdx[cs.Kind]
			if !ok {
				i = len(r.Kinds)
				kindIdx[cs.Kind] = i
				r.Kinds = append(r.Kinds, KindAgg{Kind: cs.Kind})
			}
			k := &r.Kinds[i]
			k.Count++
			k.PackedBytes += cs.PackedBytes
			k.PayloadBytes += cs.PayloadBytes
			k.ValueBytes += cs.ValueBytes
			k.PaddingBytes += cs.PaddingBytes
		}
	}
	sort.Slice(r.Kinds, func(i, j int) bool { return r.Kinds[i].Kind < r.Kinds[j].Kind })
	if archiveFraming > 0 {
		i, ok := stageIdx["framing"]
		if !ok {
			i = len(r.Stages)
			r.Stages = append(r.Stages, StageBytes{Stage: "framing"})
		}
		r.Stages[i].PackedBytes += archiveFraming
	}
}

// PackedTotal returns the sum of the packed column — by construction the
// exact file size; tests assert it.
func (r *Report) PackedTotal() int {
	n := 0
	for _, s := range r.Stages {
		n += s.PackedBytes
	}
	return n
}

// RawTotal returns the sum of the raw column: the portion of the original
// log the anatomy could attribute to a stage.
func (r *Report) RawTotal() int {
	n := 0
	for _, s := range r.Stages {
		n += s.RawBytes
	}
	return n
}

// inspectBox computes the anatomy of one CapsuleBox.
func inspectBox(data []byte) (*BoxStats, error) {
	box, err := capsule.ReadBox(data)
	if err != nil {
		return nil, err
	}
	meta := box.Meta
	padded := meta.Flags&capsule.FlagNoPadding == 0

	bs := &BoxStats{
		NumLines:     meta.NumLines,
		Flags:        flagNames(meta.Flags),
		TotalBytes:   len(data),
		OutlierLines: meta.OutlierLines.Rows(),
	}

	// Per-capsule stats. Dict capsules pad per pattern segment, so their
	// padding needs the owning variable's segment table; collect those
	// owners first.
	dictOwner := map[int]*capsule.VarMeta{}
	for gi := range meta.Groups {
		for vi := range meta.Groups[gi].Vars {
			vm := &meta.Groups[gi].Vars[vi]
			if vm.Kind == capsule.NominalVar && vm.DictCapID >= 0 {
				dictOwner[vm.DictCapID] = vm
			}
		}
	}
	bs.Capsules = make([]CapsuleStats, len(meta.Capsules))
	for id, info := range meta.Capsules {
		cs, err := capsuleStats(box, id, info, padded, dictOwner[id])
		if err != nil {
			return nil, err
		}
		bs.Capsules[id] = cs
		bs.PayloadBytes += cs.PayloadBytes
		bs.PaddingBytes += cs.PaddingBytes
	}

	// Raw-coverage attribution: every byte of the original block is a
	// template literal, a newline, a runtime-pattern literal, or a stored
	// value.
	parseRaw := 0
	extractRaw := 0
	assembleRaw := 0
	for gi := range meta.Groups {
		g := &meta.Groups[gi]
		gs := GroupStats{Index: gi, Template: templateString(g), Rows: g.Rows()}
		tplLit := 0
		for _, te := range g.Template {
			if te.Var < 0 {
				tplLit += len(te.Lit)
			}
		}
		parseRaw += g.Rows() * tplLit
		for vi := range g.Vars {
			vm := &g.Vars[vi]
			for _, id := range varCapsules(vm) {
				gs.Capsules = append(gs.Capsules, id)
				gs.PackedBytes += bs.Capsules[id].PackedBytes
				gs.PayloadBytes += bs.Capsules[id].PayloadBytes
			}
			switch vm.Kind {
			case capsule.RealVar:
				gs.RealVars++
				lit := 0
				for _, e := range vm.Pattern {
					if e.Sub < 0 {
						lit += len(e.Lit)
					}
				}
				matched := g.Rows() - len(vm.OutRows)
				extractRaw += matched * lit
				for _, e := range vm.Pattern {
					if e.Sub >= 0 && e.CapID >= 0 {
						assembleRaw += bs.Capsules[e.CapID].ValueBytes
					}
				}
				if vm.OutCapID >= 0 {
					assembleRaw += bs.Capsules[vm.OutCapID].ValueBytes
				}
			case capsule.NominalVar:
				gs.NominalVars++
				er, ar, err := nominalRawCoverage(box, vm, padded)
				if err != nil {
					return nil, err
				}
				extractRaw += er
				assembleRaw += ar
			}
		}
		bs.Groups = append(bs.Groups, gs)
	}
	if meta.OutlierCapID >= 0 {
		assembleRaw += bs.Capsules[meta.OutlierCapID].ValueBytes
	}
	bs.RawAccounted = parseRaw + extractRaw + assembleRaw

	// Packed attribution: compressed metadata + line-map section + capsule
	// blobs, and whatever else the file holds (magic, length varints) as
	// framing, so the column sums to the file size exactly.
	metaComp, _ := box.MetaSizes()
	lineMaps := box.LineMapBytes()
	blobBytes := 0
	for id := range meta.Capsules {
		blobBytes += box.BlobSize(id)
	}
	parseNote := "templates + all pattern metadata (lzma, one section)"
	lineMapNote := "row→line maps, one Rice bitstream per group; raw = one newline per line"
	if lineMaps == 0 && meta.NumLines > 0 {
		parseNote = "templates, line maps + all pattern metadata (lzma, one section)"
		lineMapNote = "rev-1 box: row→line maps are packed inside the parse section"
	}
	bs.Stages = []StageBytes{
		{Stage: "parse", RawBytes: parseRaw, PackedBytes: metaComp, Note: parseNote},
		{Stage: "linemap", RawBytes: meta.NumLines, PackedBytes: lineMaps, Note: lineMapNote},
		{Stage: "extract", RawBytes: extractRaw,
			Note: "runtime-pattern literals (stored in the parse metadata section)"},
		{Stage: "assemble", RawBytes: assembleRaw,
			Note: "capsule values; compressed bytes appear under pack"},
		{Stage: "pack", PackedBytes: blobBytes,
			Note: "lzma capsule blobs incl chunk framing"},
		{Stage: "framing", PackedBytes: len(data) - metaComp - lineMaps - blobBytes,
			Note: "magic + length varints"},
	}
	return bs, nil
}

// flagNames renders the box flag bits the compressor options set.
func flagNames(flags uint64) []string {
	var out []string
	if flags&capsule.FlagNoPadding != 0 {
		out = append(out, "no-padding")
	}
	if flags&capsule.FlagNoStamps != 0 {
		out = append(out, "no-stamps")
	}
	if flags&capsule.FlagStaticOnly != 0 {
		out = append(out, "static-only")
	}
	return out
}

// capsuleStats computes one capsule's anatomy. dictVM is the owning
// variable when the capsule is a padded dictionary (nil otherwise).
func capsuleStats(box *capsule.Box, id int, info capsule.Info, padded bool, dictVM *capsule.VarMeta) (CapsuleStats, error) {
	cs := CapsuleStats{
		ID:           id,
		Kind:         info.Kind.String(),
		Rows:         info.Rows,
		Width:        info.Width,
		Chunks:       box.ChunkCount(id),
		StampClasses: classesString(info.Stamp.TypeMask),
		StampMinLen:  info.Stamp.MinLen,
		StampMaxLen:  info.Stamp.MaxLen,
		Selectivity:  stampSelectivity(info.Stamp),
		PackedBytes:  box.BlobSize(id),
	}
	payload, err := box.Payload(id)
	if err != nil {
		return cs, fmt.Errorf("capsule %d: %w", id, err)
	}
	cs.PayloadBytes = len(payload)
	cs.EntropyBits = entropyBits(payload)
	switch {
	case info.Kind == capsule.Dict && padded && dictVM != nil:
		// Pattern-major segments, each its own fixed width.
		off := 0
		for _, dp := range dictVM.DictPatterns {
			w := max(1, dp.MaxLen)
			if off+dp.Count*w > len(payload) {
				return cs, fmt.Errorf("capsule %d: dict segments overflow payload", id)
			}
			fw := strmatch.NewFixedWidth(payload[off:off+dp.Count*w], w)
			for i := 0; i < fw.Rows(); i++ {
				cs.ValueBytes += len(fw.Value(i))
			}
			off += dp.Count * w
		}
		cs.PaddingBytes = len(payload) - cs.ValueBytes
	case info.Width > 0:
		fw := strmatch.NewFixedWidth(payload, info.Width)
		for i := 0; i < fw.Rows(); i++ {
			cs.ValueBytes += len(fw.Value(i))
		}
		cs.PaddingBytes = len(payload) - cs.ValueBytes
	default:
		// Variable length: rows-1 delimiter bytes, no padding.
		cs.ValueBytes = len(payload) - max(0, info.Rows-1)
	}
	return cs, nil
}

// nominalRawCoverage attributes a nominal variable's per-row raw bytes:
// each row's original value is its dictionary entry, whose pattern-literal
// bytes belong to extract and whose sub-value bytes belong to assemble.
// This is also where dictionary deduplication shows up — the raw coverage
// here is per row, while the stored dict bytes appear only once.
func nominalRawCoverage(box *capsule.Box, vm *capsule.VarMeta, padded bool) (extractRaw, assembleRaw int, err error) {
	dictInfo := box.Meta.Capsules[vm.DictCapID]
	dictPayload, err := box.Payload(vm.DictCapID)
	if err != nil {
		return 0, 0, err
	}
	// Per-dictionary-entry value length and owning pattern.
	lens := make([]int, 0, dictInfo.Rows)
	patLit := make([]int, len(vm.DictPatterns))
	patOf := make([]int, 0, dictInfo.Rows)
	for p, dp := range vm.DictPatterns {
		for _, e := range dp.Elems {
			if e.Sub < 0 {
				patLit[p] += len(e.Lit)
			}
		}
	}
	if padded {
		off := 0
		for p, dp := range vm.DictPatterns {
			w := max(1, dp.MaxLen)
			if off+dp.Count*w > len(dictPayload) {
				return 0, 0, fmt.Errorf("dict capsule %d: segments overflow payload", vm.DictCapID)
			}
			fw := strmatch.NewFixedWidth(dictPayload[off:off+dp.Count*w], w)
			for i := 0; i < fw.Rows(); i++ {
				lens = append(lens, len(fw.Value(i)))
				patOf = append(patOf, p)
			}
			off += dp.Count * w
		}
	} else {
		vw := strmatch.NewVarWidth(dictPayload, dictInfo.Rows)
		base := 0
		for p, dp := range vm.DictPatterns {
			for i := 0; i < dp.Count && base+i < vw.Rows(); i++ {
				lens = append(lens, len(vw.Value(base+i)))
				patOf = append(patOf, p)
			}
			base += dp.Count
		}
	}

	idxInfo := box.Meta.Capsules[vm.IndexCapID]
	idxPayload, err := box.Payload(vm.IndexCapID)
	if err != nil {
		return 0, 0, err
	}
	value := func(i int) []byte { return nil }
	rows := idxInfo.Rows
	if idxInfo.Width > 0 {
		fw := strmatch.NewFixedWidth(idxPayload, idxInfo.Width)
		value = fw.Value
	} else {
		vw := strmatch.NewVarWidth(idxPayload, rows)
		value = vw.Value
	}
	for i := 0; i < rows; i++ {
		idx, err := strconv.Atoi(string(value(i)))
		if err != nil || idx < 0 || idx >= len(lens) {
			return 0, 0, fmt.Errorf("index capsule %d: bad entry %d", vm.IndexCapID, i)
		}
		extractRaw += patLit[patOf[idx]]
		assembleRaw += lens[idx] - patLit[patOf[idx]]
	}
	return extractRaw, assembleRaw, nil
}

// varCapsules lists the capsule ids a variable owns, in id order.
func varCapsules(vm *capsule.VarMeta) []int {
	var ids []int
	switch vm.Kind {
	case capsule.RealVar:
		for _, e := range vm.Pattern {
			if e.Sub >= 0 && e.CapID >= 0 {
				ids = append(ids, e.CapID)
			}
		}
		if vm.OutCapID >= 0 {
			ids = append(ids, vm.OutCapID)
		}
	case capsule.NominalVar:
		if vm.DictCapID >= 0 {
			ids = append(ids, vm.DictCapID)
		}
		if vm.IndexCapID >= 0 {
			ids = append(ids, vm.IndexCapID)
		}
	}
	sort.Ints(ids)
	return ids
}

// templateString renders a group template with <*> variable slots.
func templateString(g *capsule.GroupMeta) string {
	var b []byte
	for _, te := range g.Template {
		if te.Var >= 0 {
			b = append(b, "<*>"...)
		} else {
			b = append(b, te.Lit...)
		}
	}
	return string(b)
}

// classesString renders a type mask as its character-class ranges.
func classesString(mask uint8) string {
	names := []struct {
		bit  uint8
		name string
	}{
		{rtpattern.TypeDigit, "0-9"},
		{rtpattern.TypeHexLo, "a-f"},
		{rtpattern.TypeHexUp, "A-F"},
		{rtpattern.TypeAlphaLo, "g-z"},
		{rtpattern.TypeAlphaUp, "G-Z"},
		{rtpattern.TypeOther, "other"},
	}
	out := ""
	for _, n := range names {
		if mask&n.bit != 0 {
			if out != "" {
				out += ","
			}
			out += n.name
		}
	}
	if out == "" {
		return "empty"
	}
	return out
}

// stampSelectivity estimates the probability that the stamp prunes a
// random probe mixing two character classes: 1 - (t/6)·((t-1)/5) for t
// present classes. 1 means the stamp rejects every such probe (maximally
// selective), 0 means it admits all of them.
func stampSelectivity(st rtpattern.Stamp) float64 {
	t := float64(rtpattern.TypeCount(st.TypeMask))
	return 1 - (t/6)*((t-1)/5)
}

// entropyBits computes the Shannon entropy of b in bits per byte.
func entropyBits(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var freq [256]int
	for _, c := range b {
		freq[c]++
	}
	h := 0.0
	n := float64(len(b))
	for _, f := range freq {
		if f == 0 {
			continue
		}
		p := float64(f) / n
		h -= p * math.Log2(p)
	}
	return h
}
