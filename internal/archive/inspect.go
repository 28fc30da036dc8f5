package archive

import (
	"context"

	"loggrep/internal/blockindex"
	"loggrep/internal/core"
	"loggrep/internal/query"
	"loggrep/internal/rtpattern"
)

// BlockInfo describes one readable block for inspection tools — the
// anatomy inspector (`loggrep stats`) and archive-level explain. Box is
// the block's raw CapsuleBox bytes, aliasing the archive buffer.
type BlockInfo struct {
	Index     int
	FirstLine int
	NumLines  int
	RawBytes  int
	Stamp     rtpattern.Stamp
	Box       []byte
}

// BlockInfos returns the readable blocks in line order.
func (a *Archive) BlockInfos() []BlockInfo {
	out := make([]BlockInfo, len(a.blocks))
	for i, b := range a.blocks {
		out[i] = BlockInfo{
			Index:     b.idx,
			FirstLine: b.lineOff,
			NumLines:  b.meta.numLines,
			RawBytes:  b.meta.rawBytes,
			Stamp:     b.meta.stamp,
			Box:       b.box,
		}
	}
	return out
}

// Explain analyzes a command across the whole archive without producing
// result entries: blocks the per-block stamps eliminate are skipped (and
// counted), every other block is explained like a single box, and the
// per-group funnels are merged by template so the output reads like one
// big box. Damaged blocks are counted, never fatal — same contract as
// Search.
func (a *Archive) Explain(command string) (*core.Explain, error) {
	expr, err := query.Parse(command)
	if err != nil {
		return nil, err
	}
	agg := &core.Explain{Command: command, NumLines: a.numLines, Blocks: len(a.blocks)}
	var plan *blockindex.Plan
	switch {
	case a.indexDisabled.Load():
		agg.IndexState = "disabled"
	case a.index.Empty():
		agg.IndexState = "absent"
	default:
		if p := a.index.NewPlan(expr); !p.Filterable {
			agg.IndexState = "not-filterable"
		} else {
			plan = p
			switch {
			case p.UsedPostings && p.UsedBlooms:
				agg.IndexState = "postings+blooms"
			case p.UsedPostings:
				agg.IndexState = "postings"
			default:
				agg.IndexState = "blooms"
			}
		}
	}
	hook := a.hook()
	for _, b := range a.blocks {
		switch admit(plan, expr, b) {
		case skipPostings:
			agg.BlocksSkippedPostings++
			continue
		case skipBlooms:
			agg.BlocksSkippedBlooms++
			continue
		case skipStamp:
			agg.BlocksSkipped++
			continue
		}
		st, err := b.openStore(context.Background(), hook)
		if err != nil {
			agg.BlocksDamaged++
			continue
		}
		ex, err := st.Explain(command)
		if err != nil {
			agg.BlocksDamaged++
			continue
		}
		agg.BlocksSearched++
		mergeExplain(agg, ex)
	}
	return agg, nil
}

// mergeExplain folds one block's explanation into the aggregate: searches
// line up by position (both come from the same parsed command), and groups
// merge by template string — rows, seeds, funnel counts, and candidates
// sum. A group counts only in the blocks whose filter entered it.
func mergeExplain(agg, ex *core.Explain) {
	agg.Decompressions += ex.Decompressions
	agg.StampPrunes += ex.StampPrunes
	for si, se := range ex.Searches {
		if si >= len(agg.Searches) {
			agg.Searches = append(agg.Searches, core.SearchExplain{Phrase: se.Phrase})
		}
		as := &agg.Searches[si]
		as.Order, as.Fragments = se.Order, se.Fragments // the command's, the same in every block
		as.Candidates += se.Candidates
		for _, ge := range se.Groups {
			gi := -1
			for i := range as.Groups {
				if as.Groups[i].Template == ge.Template {
					gi = i
					break
				}
			}
			if gi < 0 {
				as.Groups = append(as.Groups, core.GroupExplain{
					Template:      ge.Template,
					AfterFragment: make([]int, len(ge.AfterFragment)),
				})
				gi = len(as.Groups) - 1
			}
			ag := &as.Groups[gi]
			ag.Rows += ge.Rows
			ag.Seed += ge.Seed
			for i, n := range ge.AfterFragment {
				if i < len(ag.AfterFragment) {
					ag.AfterFragment[i] += n
				} else {
					ag.AfterFragment = append(ag.AfterFragment, n)
				}
			}
		}
	}
}
