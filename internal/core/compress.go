package core

import (
	"time"

	"loggrep/internal/capsule"
	"loggrep/internal/logparse"
	"loggrep/internal/rtpattern"
)

// Compress structurizes a raw log block and packs it into a CapsuleBox.
//
// Pipeline (§3): the Parser mines static patterns on a sample and splits
// the block into per-template variable vectors; the Extractor mines runtime
// patterns per vector (tree expanding for real vectors, pattern merging for
// nominal ones); the Assembler decomposes vectors into Capsules and stamps
// them; the Packer pads each Capsule's values to the Capsule's maximal
// length and LZMA-compresses every Capsule independently.
//
// Each stage's duration and the block's sizes are recorded into
// obsv.Default (loggrep_compress_* metrics; see OPERATIONS.md).
func Compress(block []byte, opts Options) []byte {
	t0 := time.Now()
	parsed := logparse.Parse(block, opts.Parse)
	tParsed := time.Now()
	b := &builder{opts: opts}

	meta := &capsule.Meta{
		NumLines:     parsed.NumLines,
		OutlierCapID: -1,
		OutlierLines: capsule.NewLineMap(parsed.OutlierLines),
	}
	if opts.StaticOnly {
		meta.Flags |= capsule.FlagStaticOnly
	}
	if opts.DisableStamps {
		meta.Flags |= capsule.FlagNoStamps
	}
	if opts.DisablePadding {
		meta.Flags |= capsule.FlagNoPadding
	}

	for _, g := range parsed.Groups {
		tGroup := time.Now()
		gm := capsule.GroupMeta{Lines: capsule.NewLineMap(g.Lines)}
		for _, e := range g.Template.Elems {
			gm.Template = append(gm.Template, capsule.TemplateElem{Lit: e.Lit, Var: e.Var})
		}
		for _, values := range g.Vars {
			gm.Vars = append(gm.Vars, b.buildVar(values, opts))
		}
		meta.Groups = append(meta.Groups, gm)
		mCompressPatternNS.Observe(time.Since(tGroup).Nanoseconds())
	}
	if len(parsed.Outliers) > 0 {
		meta.OutlierCapID = b.addVarCap(capsule.Outlier, parsed.Outliers)
	}
	meta.Capsules = b.infos
	tAssembled := time.Now()
	out := capsule.WriteBox(meta, b.payloads, opts.ChunkBytes)

	mCompressBlocks.Inc()
	mCompressRawBytes.Add(int64(len(block)))
	mCompressBoxBytes.Add(int64(len(out)))
	mCompressGroups.Observe(int64(len(parsed.Groups)))
	mCompressParseNS.Observe(tParsed.Sub(t0).Nanoseconds())
	mCompressExtractNS.Observe(b.extractNS)
	// Assembly is the builder's time net of the extraction calls it made.
	mCompressAssembleNS.Observe(tAssembled.Sub(tParsed).Nanoseconds() - b.extractNS)
	mCompressPackNS.Observe(time.Since(tAssembled).Nanoseconds())
	return out
}

// builder accumulates the capsule directory and payloads.
type builder struct {
	opts     Options
	infos    []capsule.Info
	payloads [][]byte
	// extractNS accumulates time spent inside rtpattern extraction calls,
	// separating the Extractor stage from the Assembler stage it is
	// interleaved with.
	extractNS int64
}

// timeExtract runs fn attributing its duration to the Extractor stage.
func (b *builder) timeExtract(fn func()) {
	t0 := time.Now()
	fn()
	b.extractNS += time.Since(t0).Nanoseconds()
}

// addFixedCap appends a padded fixed-width capsule (or a variable-length
// one when padding is disabled) and returns its id.
func (b *builder) addFixedCap(kind capsule.Kind, values []string) int {
	st := rtpattern.StampOf(values)
	info := capsule.Info{Kind: kind, Stamp: st, Rows: len(values)}
	var payload []byte
	if b.opts.DisablePadding {
		payload = capsule.PackVar(values)
	} else {
		// Width 0 means "variable length" in the format, so all-empty
		// vectors pad to one byte.
		info.Width = max(1, st.MaxLen)
		payload = capsule.PackFixed(values, info.Width)
	}
	b.infos = append(b.infos, info)
	b.payloads = append(b.payloads, payload)
	return len(b.infos) - 1
}

// addVarCap appends a variable-length capsule (outliers) and returns its id.
func (b *builder) addVarCap(kind capsule.Kind, values []string) int {
	b.infos = append(b.infos, capsule.Info{
		Kind:  kind,
		Stamp: rtpattern.StampOf(values),
		Rows:  len(values),
	})
	b.payloads = append(b.payloads, capsule.PackVar(values))
	return len(b.infos) - 1
}

// buildVar encodes one variable vector.
func (b *builder) buildVar(values []string, opts Options) capsule.VarMeta {
	if opts.StaticOnly {
		return b.buildWhole(values)
	}
	var cat rtpattern.Category
	b.timeExtract(func() { cat = rtpattern.Categorize(values, opts.Extract) })
	switch cat {
	case rtpattern.Real:
		if opts.DisableReal {
			return b.buildWhole(values)
		}
		return b.buildReal(values, opts)
	default:
		if opts.DisableNominal {
			return b.buildWhole(values)
		}
		return b.buildNominal(values)
	}
}

// buildWhole stores the vector as a single capsule behind a degenerate
// one-sub-variable pattern — exactly the LogGrep-SP layout (§2.2: whole
// variable vectors with vector-level summaries).
func (b *builder) buildWhole(values []string) capsule.VarMeta {
	capID := b.addFixedCap(capsule.SubVar, values)
	return capsule.VarMeta{
		Kind: capsule.RealVar,
		Pattern: []capsule.PatternElem{
			{Sub: 0, Stamp: b.infos[capID].Stamp, CapID: capID},
		},
		NumSubs:  1,
		OutCapID: -1,
	}
}

// buildReal runs tree-expanding extraction and encodes sub-variable
// capsules plus an optional outlier capsule (Figure 4).
func (b *builder) buildReal(values []string, opts Options) capsule.VarMeta {
	var res *rtpattern.RealResult
	b.timeExtract(func() { res = rtpattern.ExtractReal(values, opts.Extract) })
	vm := capsule.VarMeta{
		Kind:     capsule.RealVar,
		NumSubs:  res.Pattern.NumSubs,
		OutCapID: -1,
		OutRows:  res.OutlierRows,
	}
	subCaps := make([]int, res.Pattern.NumSubs)
	for s := 0; s < res.Pattern.NumSubs; s++ {
		subCaps[s] = b.addFixedCap(capsule.SubVar, res.Subs[s])
	}
	for _, e := range res.Pattern.Elems {
		pe := capsule.PatternElem{Lit: e.Lit, Sub: e.Sub, CapID: -1}
		if e.Sub >= 0 {
			pe.Stamp = e.Stamp
			pe.CapID = subCaps[e.Sub]
		}
		vm.Pattern = append(vm.Pattern, pe)
	}
	if len(res.Outliers) > 0 {
		vm.OutCapID = b.addVarCap(capsule.Outlier, res.Outliers)
	}
	return vm
}

// buildNominal runs pattern merging and encodes the dictionary and index
// capsules (Figure 5).
func (b *builder) buildNominal(values []string) capsule.VarMeta {
	var res *rtpattern.NominalResult
	b.timeExtract(func() { res = rtpattern.ExtractNominal(values) })
	vm := capsule.VarMeta{
		Kind:       capsule.NominalVar,
		IndexWidth: res.IndexWidth,
		OutCapID:   -1,
	}
	counts := make([]int, len(res.Patterns))
	widths := make([]int, len(res.Patterns))
	for p, dp := range res.Patterns {
		counts[p] = dp.Count
		// MaxLen doubles as the segment's padded width, so it is at
		// least 1 even for empty dictionary values.
		widths[p] = max(1, dp.MaxLen)
		dpm := capsule.DictPatternMeta{Count: dp.Count, MaxLen: widths[p]}
		for _, e := range dp.Pattern.Elems {
			pe := capsule.PatternElem{Lit: e.Lit, Sub: e.Sub, CapID: -1}
			if e.Sub >= 0 {
				pe.Stamp = e.Stamp
			}
			dpm.Elems = append(dpm.Elems, pe)
		}
		vm.DictPatterns = append(vm.DictPatterns, dpm)
	}

	dictInfo := capsule.Info{
		Kind:  capsule.Dict,
		Stamp: rtpattern.StampOf(res.DictValues),
		Rows:  len(res.DictValues),
	}
	var dictPayload []byte
	if b.opts.DisablePadding {
		dictPayload = capsule.PackVar(res.DictValues)
	} else {
		dictPayload = capsule.PackDict(res.DictValues, counts, widths)
	}
	b.infos = append(b.infos, dictInfo)
	b.payloads = append(b.payloads, dictPayload)
	vm.DictCapID = len(b.infos) - 1

	idxValues := make([]string, len(res.RowIndex))
	for k, idx := range res.RowIndex {
		idxValues[k] = capsule.FormatIndex(idx, res.IndexWidth)
	}
	idxInfo := capsule.Info{
		Kind:  capsule.Index,
		Stamp: rtpattern.StampOf(idxValues),
		Rows:  len(idxValues),
	}
	var idxPayload []byte
	if b.opts.DisablePadding {
		idxPayload = capsule.PackVar(idxValues)
	} else {
		idxInfo.Width = res.IndexWidth
		idxPayload = capsule.PackFixed(idxValues, res.IndexWidth)
	}
	b.infos = append(b.infos, idxInfo)
	b.payloads = append(b.payloads, idxPayload)
	vm.IndexCapID = len(b.infos) - 1
	return vm
}
