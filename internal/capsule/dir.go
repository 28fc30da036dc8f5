package capsule

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// encode appends the serialized directory to dst: everything but the
// line maps, of which it records the row counts only.
func (m *Meta) encode(dst []byte) []byte {
	e := encbuf{b: dst}
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
		e.uint(uint64(c.Codec))
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

func decodeElems(d *decbuf, a *dirArena) []PatternElem {
	elems := a.elems.take(d.length(2))
	for i := range elems {
		if d.err != nil {
			break
		}
		el := &elems[i]
		el.Sub = d.int()
		if el.Sub < 0 {
			a.lit(d.bytes())
			el.CapID = -1
		} else {
			el.Stamp.TypeMask = uint8(d.uint())
			el.Stamp.MaxLen = d.size()
			el.Stamp.MinLen = d.size()
			el.CapID = d.int()
		}
	}
	return elems
}

// dirDecoder holds what one decode can hand to the next: the DEFLATE
// decode tables, the buffer a directory inflates into and the arena's
// scratch. None of it is in the Meta or the payload a decode returns, so
// ReadBox borrows a decoder instead of paying for the tables, the buffer
// and the scratch per box, and a capsule decode borrows one for its tables.
type dirDecoder struct {
	z   inflater
	raw []byte
	a   dirArena
}

// dirDecoders recycles decoders. A sync.Pool lets go of what it holds at
// garbage collection, and a fresh decoder regrows its scratch (150 KB for
// a 2 MiB block) by doubling, so one decoder is also kept as spareDir,
// beyond the collector's reach.
var (
	dirDecoders = sync.Pool{New: func() any { return new(dirDecoder) }}
	spareDir    atomic.Pointer[dirDecoder]
)

func getDirDecoder() *dirDecoder {
	if dd := spareDir.Swap(nil); dd != nil {
		return dd
	}
	return dirDecoders.Get().(*dirDecoder)
}

func putDirDecoder(dd *dirDecoder) {
	if !spareDir.CompareAndSwap(nil, dd) {
		dirDecoders.Put(dd)
	}
}

// maxPooledDir is the largest directory whose decoder is kept: a forged
// box may inflate one far beyond any real block's (22 KB for a 2 MiB
// block of seven log types), and spareDir should not pin its buffer and
// scratch, which can reach ~30 bytes per directory byte.
const maxPooledDir = 256 << 10

// maxDirBytes bounds a directory's decoded size. A DEFLATE chunk's own
// expansion ceiling (maxDeflateExpansion) binds long before it.
const maxDirBytes = 1 << 34

// decodeDir decodes a directory section and returns it with its decoded
// size.
func decodeDir(sec []byte) (*Meta, int, error) {
	dd := getDirDecoder()
	raw, err := dd.z.decodeInto(dd.raw, sec, maxDirBytes, false)
	if err != nil {
		putDirDecoder(dd)
		return nil, 0, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	m, err := dd.a.decodeMeta(raw)
	if len(raw) <= maxPooledDir {
		dd.raw = raw
		putDirDecoder(dd)
	}
	return m, len(raw), err
}

// dirArena collects a directory's nested slices — template and pattern
// elements, vars, dictionary patterns and outlier rows —
// in one scratch slab per element type while decode runs, and its
// literals' bytes back to back; carve then moves each slab into one exact
// array of the Meta's own and the literals into one string. A directory
// decodes in a handful of allocations instead of one per element.
type dirArena struct {
	tmpl    slab[TemplateElem]
	elems   slab[PatternElem]
	vars    slab[VarMeta]
	dicts   slab[DictPatternMeta]
	ints    slab[int]
	lits    []byte // every literal's bytes, in decode order
	litEnds []int  // where each literal ends in lits
}

// lit collects the next literal; carve assigns it.
func (a *dirArena) lit(b []byte) {
	a.lits = append(a.lits, b...)
	a.litEnds = append(a.litEnds, len(a.lits))
}

// decodeMeta parses a box's metadata section. It carries the line maps'
// row counts, and readLineMaps attaches their bitstreams. Literals are
// substrings of one string of all of them.
func (a *dirArena) decodeMeta(raw []byte) (*Meta, error) {
	defer a.reset()
	d := &decbuf{b: raw}
	m := &Meta{}
	a.decode(d, m)
	if d.err != nil {
		return nil, d.err
	}
	a.carve(m)
	return m, nil
}

// carve moves m's nested slices out of the scratch into one exact array
// per element type and gives every literal its string, visiting them in
// the order decode took them.
func (a *dirArena) carve(m *Meta) {
	tmpl, elems, vars, dicts, ints := a.tmpl.own(), a.elems.own(), a.vars.own(), a.dicts.own(), a.ints.own()
	lits := litCursor{s: string(a.lits), ends: a.litEnds}
	for gi := range m.Groups {
		g := &m.Groups[gi]
		g.Template = next(&tmpl, g.Template)
		for ti := range g.Template {
			if t := &g.Template[ti]; t.Var < 0 {
				t.Lit = lits.next()
			}
		}
		g.Vars = next(&vars, g.Vars)
		for vi := range g.Vars {
			v := &g.Vars[vi]
			v.Pattern = lits.elems(next(&elems, v.Pattern))
			v.OutRows = next(&ints, v.OutRows)
			v.DictPatterns = next(&dicts, v.DictPatterns)
			for di := range v.DictPatterns {
				dp := &v.DictPatterns[di]
				dp.Elems = lits.elems(next(&elems, dp.Elems))
			}
		}
	}
}

// litCursor hands out a directory's literals in decode order.
type litCursor struct {
	s    string
	ends []int
	prev int
}

func (c *litCursor) next() string {
	end := c.ends[0]
	c.ends = c.ends[1:]
	s := c.s[c.prev:end]
	c.prev = end
	return s
}

// elems gives the literal elements of es their strings.
func (c *litCursor) elems(es []PatternElem) []PatternElem {
	for i := range es {
		if es[i].Sub < 0 {
			es[i].Lit = c.next()
		}
	}
	return es
}

func (a *dirArena) reset() {
	a.tmpl.reset()
	a.elems.reset()
	a.vars.reset()
	a.dicts.reset()
	a.ints.reset()
	a.lits, a.litEnds = a.lits[:0], a.litEnds[:0]
}

// slab is the scratch of one element type: decode takes from it in order.
type slab[T any] []T

// take appends n zero elements and returns them, never nil. A later take
// may move the scratch, so each run is filled before the next one is
// taken, and carve re-points them all.
func (s *slab[T]) take(n int) []T {
	i := len(*s)
	*s = slices.Grow(*s, max(n, 1))[:i+n]
	return (*s)[i : i+n : i+n]
}

// own copies the scratch into an array of exactly its length.
func (s slab[T]) own() []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// reset empties the scratch, zeroing it: decode writes only some fields of
// what it takes, and own copies them all.
func (s *slab[T]) reset() {
	clear(*s)
	*s = (*s)[:0]
}

// next re-points run, taken from a scratch slab, at the next len(run)
// elements of *dst, the slab's own copy; nil, a run never taken, stays nil.
func next[T any](dst *[]T, run []T) []T {
	if run == nil {
		return nil
	}
	n := len(run)
	out := (*dst)[:n:n]
	*dst = (*dst)[n:]
	return out
}

// decode parses d into m, taking m's nested slices from the scratch.
func (a *dirArena) decode(d *decbuf, m *Meta) {
	m.NumLines = d.size()
	m.Flags = d.uint()
	m.OutlierCapID = d.int()
	m.OutlierLines = LineMap{rows: d.size()}
	m.Capsules = make([]Info, d.length(4))
	for i := 0; i < len(m.Capsules) && d.err == nil; i++ {
		c := &m.Capsules[i]
		c.Kind = Kind(d.uint())
		c.Stamp.TypeMask = uint8(d.uint())
		c.Stamp.MaxLen = d.size()
		c.Stamp.MinLen = d.size()
		c.Rows = d.size()
		c.Width = d.size()
		c.ChunkRows = d.size()
		if c.Codec = Codec(d.uint()); c.Codec != CodecDeflate {
			d.fail("unknown capsule codec")
		}
	}
	m.Groups = make([]GroupMeta, d.length(4))
	for i := 0; i < len(m.Groups) && d.err == nil; i++ {
		g := &m.Groups[i]
		g.Template = a.tmpl.take(d.length(2))
		for j := range g.Template {
			if d.err != nil {
				break
			}
			t := &g.Template[j]
			if t.Var = d.int(); t.Var < 0 {
				a.lit(d.bytes())
			}
		}
		g.Lines = LineMap{rows: d.size()}
		g.Vars = a.vars.take(d.length(2))
		for j := range g.Vars {
			if d.err != nil {
				break
			}
			v := &g.Vars[j]
			v.Kind = VarKind(d.uint())
			switch v.Kind {
			case RealVar:
				v.Pattern = decodeElems(d, a)
				v.NumSubs = d.size()
				v.OutCapID = d.int()
				v.OutRows = d.ascInts(&a.ints)
				v.DictCapID, v.IndexCapID = -1, -1
			case NominalVar:
				v.DictCapID = d.int()
				v.IndexCapID = d.int()
				v.IndexWidth = d.size()
				v.DictPatterns = a.dicts.take(d.length(3))
				for k := range v.DictPatterns {
					if d.err != nil {
						break
					}
					dp := &v.DictPatterns[k]
					dp.Elems = decodeElems(d, a)
					dp.Count = d.size()
					dp.MaxLen = d.size()
				}
				v.OutCapID = -1
			default:
				d.fail("unknown variable kind")
			}
		}
	}
}
