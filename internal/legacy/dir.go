package legacy

import (
	"encoding/binary"
	"fmt"

	"loggrep/internal/capsule"
)

// decodeDir parses the directory of a box of retired revision rev — a
// frozen copy of the grammar its writer used. Revision 1 carries the line
// maps inline as delta varints; revisions 2 and 3 carry their row counts,
// returned in stored order (the groups', then the outlier lines') for
// capsule.ReadLineMaps. Revision 3 adds each capsule's codec byte.
func decodeDir(raw []byte, rev int) (*capsule.Meta, []int, error) {
	d := &decbuf{b: raw}
	m := &capsule.Meta{}
	var rows []int
	lineMap := func() capsule.LineMap {
		if rev >= 2 {
			rows = append(rows, d.size())
			return capsule.LineMap{}
		}
		// Validated as a stored map's first touch validates it: strictly
		// ascending, inside the block.
		lines := d.ascInts()
		for i, l := range lines {
			if l < 0 || l >= m.NumLines || (i > 0 && l <= lines[i-1]) {
				d.fail("line map out of order or range")
				break
			}
		}
		return capsule.NewLineMap(lines)
	}
	m.NumLines = d.size()
	// Every rev-1 line costs at least one encoded byte of some line map.
	if rev == 1 && d.err == nil && m.NumLines > len(d.b) {
		d.fail("implausible line count")
	}
	m.Flags = d.uint()
	m.OutlierCapID = d.int()
	m.OutlierLines = lineMap()
	outlierRows := rows
	rows = nil
	m.Capsules = make([]capsule.Info, d.length(4))
	for i := 0; i < len(m.Capsules) && d.err == nil; i++ {
		c := &m.Capsules[i]
		c.Kind = capsule.Kind(d.uint())
		c.Stamp.TypeMask = uint8(d.uint())
		c.Stamp.MaxLen = d.size()
		c.Stamp.MinLen = d.size()
		c.Rows = d.size()
		c.Width = d.size()
		c.ChunkRows = d.size()
		c.Codec = codecLZMA
		if rev == 3 {
			if c.Codec = capsule.Codec(d.uint()); c.Codec > codecDeflate {
				d.fail("unknown capsule codec")
			}
		}
	}
	m.Groups = make([]capsule.GroupMeta, d.length(4))
	for i := 0; i < len(m.Groups) && d.err == nil; i++ {
		g := &m.Groups[i]
		g.Template = make([]capsule.TemplateElem, d.length(2))
		for j := 0; j < len(g.Template) && d.err == nil; j++ {
			t := &g.Template[j]
			if t.Var = d.int(); t.Var < 0 {
				t.Lit = d.str()
			}
		}
		g.Lines = lineMap()
		g.Vars = make([]capsule.VarMeta, d.length(2))
		for j := 0; j < len(g.Vars) && d.err == nil; j++ {
			v := &g.Vars[j]
			v.Kind = capsule.VarKind(d.uint())
			switch v.Kind {
			case capsule.RealVar:
				v.Pattern = d.elems()
				v.NumSubs = d.size()
				v.OutCapID = d.int()
				v.OutRows = d.ascInts()
				v.DictCapID, v.IndexCapID = -1, -1
			case capsule.NominalVar:
				v.DictCapID = d.int()
				v.IndexCapID = d.int()
				v.IndexWidth = d.size()
				v.DictPatterns = make([]capsule.DictPatternMeta, d.length(3))
				for k := 0; k < len(v.DictPatterns) && d.err == nil; k++ {
					dp := &v.DictPatterns[k]
					dp.Elems = d.elems()
					dp.Count = d.size()
					dp.MaxLen = d.size()
				}
				v.OutCapID = -1
			default:
				d.fail("unknown variable kind")
			}
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return m, append(rows, outlierRows...), nil
}

// decbuf reads the directory's fields; it latches the first error.
type decbuf struct {
	b   []byte
	pos int
	err error
}

func (d *decbuf) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: directory: %s at offset %d", ErrCorrupt, what, d.pos)
	}
}

func (d *decbuf) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decbuf) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return int(v)
}

// size reads a size-like field, which no real block puts at 2^31 or more.
func (d *decbuf) size() int {
	v := d.uint()
	if v > 1<<31-1 {
		d.fail("implausible size field")
		return 0
	}
	return int(v)
}

// length reads a count of elements that take at least min bytes each.
func (d *decbuf) length(min int) int {
	n := d.uint()
	if d.err == nil && n > 0 && (n > uint64(len(d.b)) || (n-1)*uint64(min) > uint64(len(d.b)-d.pos)) {
		d.fail("implausible length")
		return 0
	}
	return int(n)
}

func (d *decbuf) str() string {
	n := d.length(1)
	if d.err == nil && d.pos+n > len(d.b) {
		d.fail("string overruns buffer")
	}
	if d.err != nil {
		return ""
	}
	d.pos += n
	return string(d.b[d.pos-n : d.pos])
}

// ascInts reads a delta-coded ascending int slice.
func (d *decbuf) ascInts() []int {
	out := make([]int, d.length(1))
	prev := 0
	for i := range out {
		prev += int(d.uint())
		out[i] = prev
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decbuf) elems() []capsule.PatternElem {
	elems := make([]capsule.PatternElem, d.length(2))
	for i := 0; i < len(elems) && d.err == nil; i++ {
		el := &elems[i]
		if el.Sub = d.int(); el.Sub < 0 {
			el.Lit, el.CapID = d.str(), -1
		} else {
			el.Stamp.TypeMask = uint8(d.uint())
			el.Stamp.MaxLen = d.size()
			el.Stamp.MinLen = d.size()
			el.CapID = d.int()
		}
	}
	return elems
}
