package archive

import "loggrep/internal/blockindex"

// HasIndex reports whether a usable index section was decoded at Open.
func (a *Archive) HasIndex() bool { return !a.index.Empty() }

// IndexStats describes the decoded index sections: sizes, coverage, and
// how many sections were present but damaged.
func (a *Archive) IndexStats() blockindex.Stats {
	if a.index == nil {
		return blockindex.Stats{}
	}
	return a.index.ScanStats
}

// IndexSectionRange locates the index tail of a v2 archive: the byte
// offset just past the terminator frame and the framed sections found
// there. Fault-injection and inspection tooling uses it to target exact
// byte regions. It fails on the first structural fault of the frame walk.
func IndexSectionRange(data []byte) (tailOff int, sections []blockindex.SectionInfo, err error) {
	if err := checkMagic(data); err != nil {
		return -1, nil, err
	}
	w := walkV2(data)
	if len(w.causes) > 0 {
		return -1, nil, w.causes[0]
	}
	off := w.frames[len(w.frames)-1].payloadOff // past the terminator
	return off, blockindex.ScanSections(data[off:]), nil
}
