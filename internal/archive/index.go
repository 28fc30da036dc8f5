package archive

import (
	"fmt"

	"loggrep/internal/blockindex"
)

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
// byte regions; a v1 archive or one with no terminator returns offset -1.
func IndexSectionRange(data []byte) (tailOff int, sections []blockindex.SectionInfo, err error) {
	if !hasMagic(data, Magic) {
		if hasMagic(data, MagicV1) {
			return -1, nil, nil
		}
		return -1, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	frames, err := ScanFrames(data)
	if err != nil {
		return -1, nil, err
	}
	for _, f := range frames {
		if f.Terminator {
			off := f.HeaderOff + headerSize
			return off, blockindex.ScanSections(data[off:]), nil
		}
	}
	return -1, nil, nil
}
