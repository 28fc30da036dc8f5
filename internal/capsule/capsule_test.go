package capsule

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

func TestPackFixed(t *testing.T) {
	buf := PackFixed([]string{"ab", "", "abcd"}, 4)
	want := []byte("ab\x00\x00\x00\x00\x00\x00abcd")
	if !bytes.Equal(buf, want) {
		t.Fatalf("PackFixed = %q, want %q", buf, want)
	}
	fw := strmatch.NewFixedWidth(buf, 4)
	if string(fw.Value(0)) != "ab" || string(fw.Value(1)) != "" || string(fw.Value(2)) != "abcd" {
		t.Fatal("values do not round-trip")
	}
}

func TestPackFixedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized value")
		}
	}()
	PackFixed([]string{"abcde"}, 4)
}

func TestPackVar(t *testing.T) {
	buf := PackVar([]string{"a", "", "bc"})
	if string(buf) != "a\n\nbc" {
		t.Fatalf("PackVar = %q", buf)
	}
	vw := strmatch.NewVarWidth(buf, 3)
	if string(vw.Value(0)) != "a" || string(vw.Value(1)) != "" || string(vw.Value(2)) != "bc" {
		t.Fatal("var values do not round-trip")
	}
	if len(PackVar(nil)) != 0 {
		t.Fatal("empty PackVar not empty")
	}
}

func TestPackDictAndOffset(t *testing.T) {
	// Figure 5: pattern 0 = {ERR#404, ERR#501} width 7, pattern 1 = {SUCC} width 4.
	values := []string{"ERR#404", "ERR#501", "SUCC"}
	counts := []int{2, 1}
	widths := []int{7, 4}
	buf := PackDict(values, counts, widths)
	if len(buf) != 2*7+4 {
		t.Fatalf("dict payload %d bytes", len(buf))
	}
	seg1 := strmatch.NewFixedWidth(buf[14:], 4)
	if string(seg1.Value(0)) != "SUCC" {
		t.Fatalf("segment 1 value = %q", seg1.Value(0))
	}
}

func TestIndexPacking(t *testing.T) {
	idx := []int{0, 2, 1, 10, 9}
	var buf []byte
	for _, i := range idx {
		buf = append(buf, FormatIndex(i, 2)...)
	}
	if string(buf) != "0002011009" {
		t.Fatalf("packed index = %q", buf)
	}
	for row, want := range idx {
		if got, err := strconv.Atoi(string(buf[row*2 : row*2+2])); err != nil || got != want {
			t.Errorf("index row %d = %d, %v; want %d", row, got, err, want)
		}
	}
}

// FormatIndex must keep emitting what fmt's %0*d did: stored index capsules
// and the dictionary-key lookups in core depend on the exact digits.
func TestFormatIndexMatchesSprintf(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7, 19, 25} {
		for _, idx := range []int{0, 1, 9, 10, 99, 100, 65535, 1234567} {
			want := fmt.Sprintf("%0*d", width, idx)
			if len(want) > width {
				continue
			}
			if got := FormatIndex(idx, width); got != want {
				t.Errorf("FormatIndex(%d, %d) = %q, want %q", idx, width, got, want)
			}
		}
	}
}

func TestFormatIndexOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for index overflow")
		}
	}()
	FormatIndex(100, 2)
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{SubVar: "subvar", Dict: "dict", Index: "index", Outlier: "outlier", Kind(9): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func sampleMeta() (*Meta, [][]byte) {
	meta := &Meta{
		NumLines:     6,
		Flags:        FlagStaticOnly,
		OutlierCapID: 4,
		OutlierLines: NewLineMap([]int{5}),
		Capsules: []Info{
			{Kind: SubVar, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 3}, Rows: 2, Width: 3},
			{Kind: SubVar, Stamp: rtpattern.Stamp{TypeMask: 5, MaxLen: 4}, Rows: 2, Width: 4},
			{Kind: Dict, Stamp: rtpattern.Stamp{TypeMask: 63, MaxLen: 7}, Rows: 3, Width: 0},
			{Kind: Index, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 1}, Rows: 3, Width: 1},
			{Kind: Outlier, Stamp: rtpattern.Stamp{TypeMask: 63, MaxLen: 12}, Rows: 1, Width: 0},
		},
		Groups: []GroupMeta{
			{
				Template: []TemplateElem{{Var: -1, Lit: "T"}, {Var: 0}, {Var: -1, Lit: " read"}},
				Lines:    NewLineMap([]int{0, 2}),
				Vars: []VarMeta{
					{
						Kind: RealVar,
						Pattern: []PatternElem{
							{Sub: -1, Lit: "bk.", CapID: -1},
							{Sub: 0, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 3}, CapID: 0},
							{Sub: -1, Lit: ".", CapID: -1},
							{Sub: 1, Stamp: rtpattern.Stamp{TypeMask: 5, MaxLen: 4}, CapID: 1},
						},
						NumSubs:  2,
						OutCapID: -1,
					},
				},
			},
			{
				Template: []TemplateElem{{Var: 0}, {Var: -1, Lit: " state"}},
				Lines:    NewLineMap([]int{1, 3, 4}),
				Vars: []VarMeta{
					{
						Kind:       NominalVar,
						DictCapID:  2,
						IndexCapID: 3,
						IndexWidth: 1,
						DictPatterns: []DictPatternMeta{
							{
								Elems:  []PatternElem{{Sub: -1, Lit: "ERR#", CapID: -1}, {Sub: 0, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 3}, CapID: -1}},
								Count:  2,
								MaxLen: 7,
							},
							{Elems: []PatternElem{{Sub: -1, Lit: "SUCC", CapID: -1}}, Count: 1, MaxLen: 4},
						},
						OutCapID: -1,
					},
				},
			},
		},
	}
	payloads := [][]byte{
		PackFixed([]string{"13", "15"}, 3),
		PackFixed([]string{"FF", "C5"}, 4),
		PackDict([]string{"ERR#404", "ERR#501", "SUCC"}, []int{2, 1}, []int{7, 4}),
		PackFixed([]string{"0", "2", "1"}, 1),
		PackVar([]string{"garbage line"}),
	}
	return meta, payloads
}

func TestBoxRoundTrip(t *testing.T) {
	meta, payloads := sampleMeta()
	data := WriteBox(meta, payloads, 0)
	box, err := ReadBox(data)
	if err != nil {
		t.Fatal(err)
	}
	m := box.Meta
	if m.NumLines != 6 || m.Flags != FlagStaticOnly || m.OutlierCapID != 4 {
		t.Fatalf("meta header mismatch: %+v", m)
	}
	if len(m.Capsules) != 5 || len(m.Groups) != 2 {
		t.Fatalf("directory mismatch: %d capsules %d groups", len(m.Capsules), len(m.Groups))
	}
	if m.Capsules[1].Stamp.TypeMask != 5 || m.Capsules[1].Width != 4 {
		t.Fatalf("capsule info mismatch: %+v", m.Capsules[1])
	}
	g0 := m.Groups[0]
	if g0.Template[0].Lit != "T" || g0.Template[1].Var != 0 || g0.Rows() != 2 {
		t.Fatalf("group 0 mismatch: %+v", g0)
	}
	v0 := g0.Vars[0]
	if v0.Kind != RealVar || v0.NumSubs != 2 || v0.Pattern[1].CapID != 0 || v0.Pattern[3].Stamp.MaxLen != 4 {
		t.Fatalf("real var mismatch: %+v", v0)
	}
	v1 := m.Groups[1].Vars[0]
	if v1.Kind != NominalVar || v1.DictCapID != 2 || len(v1.DictPatterns) != 2 || v1.DictPatterns[0].Count != 2 {
		t.Fatalf("nominal var mismatch: %+v", v1)
	}
	for i, want := range payloads {
		got, err := box.Payload(i)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if box.Decompressions != 5 {
		t.Fatalf("Decompressions = %d, want 5", box.Decompressions)
	}
	// Cached access does not re-decompress.
	box.Payload(0)
	if box.Decompressions != 5 {
		t.Fatal("cache miss on repeated access")
	}
	box.DropCache()
	if box.Decompressions != 0 {
		t.Fatal("DropCache did not reset the counter")
	}
}

func TestBoxPayloadOutOfRange(t *testing.T) {
	meta, payloads := sampleMeta()
	box, err := ReadBox(WriteBox(meta, payloads, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := box.Payload(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := box.Payload(99); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

// Corruption anywhere in the stream must produce an error or garbage-free
// failure, never a panic.
func TestBoxCorruptionRejected(t *testing.T) {
	meta, payloads := sampleMeta()
	data := WriteBox(meta, payloads, 0)
	if _, err := ReadBox(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := ReadBox([]byte("BADMAGIC rest")); err == nil {
		t.Fatal("bad magic accepted")
	}
	for cut := 0; cut < len(data); cut += 3 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", cut, r)
				}
			}()
			if box, err := ReadBox(data[:cut]); err == nil {
				for i := range box.Meta.Capsules {
					box.Payload(i)
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		mut := bytes.Clone(data)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit flip: %v", r)
				}
			}()
			if box, err := ReadBox(mut); err == nil {
				for i := range box.Meta.Capsules {
					box.Payload(i)
				}
			}
		}()
	}
}

// Property: meta encode/decode round-trips for generated shapes.
func TestQuickMetaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		meta := &Meta{
			NumLines:     rng.Intn(1000),
			Flags:        uint64(rng.Intn(8)),
			OutlierCapID: -1,
		}
		nc := rng.Intn(5)
		for i := 0; i < nc; i++ {
			meta.Capsules = append(meta.Capsules, Info{
				Kind:  Kind(rng.Intn(4)),
				Stamp: rtpattern.Stamp{TypeMask: uint8(rng.Intn(64)), MaxLen: rng.Intn(100)},
				Rows:  rng.Intn(1000),
				Width: rng.Intn(50),
			})
		}
		ng := rng.Intn(4)
		lineNo := 0
		for i := 0; i < ng; i++ {
			var g GroupMeta
			g.Template = []TemplateElem{{Var: -1, Lit: "x"}, {Var: 0}}
			var lines []int
			for j := 0; j < rng.Intn(5)+1; j++ {
				lineNo += rng.Intn(3) + 1
				lines = append(lines, lineNo)
			}
			g.Lines = NewLineMap(lines)
			g.Vars = []VarMeta{{
				Kind:     RealVar,
				Pattern:  []PatternElem{{Sub: 0, Stamp: rtpattern.Stamp{TypeMask: 1, MaxLen: 5}, CapID: 0}},
				NumSubs:  1,
				OutCapID: -1,
			}}
			meta.Groups = append(meta.Groups, g)
		}
		// The bounded decoder rejects line counts the line maps cannot
		// back, so declare the honest count for the lines generated above.
		meta.NumLines = lineNo + 1
		payloads := make([][]byte, len(meta.Capsules))
		for i, c := range meta.Capsules {
			if c.Width > 0 {
				payloads[i] = make([]byte, c.Rows*c.Width)
			} else {
				payloads[i] = []byte("abc")
				meta.Capsules[i].Rows = 1
				if meta.Capsules[i].Stamp.MaxLen < 3 {
					meta.Capsules[i].Stamp.MaxLen = 3
				}
			}
		}
		box, err := ReadBox(WriteBox(meta, payloads, 0))
		if err != nil {
			t.Log(err)
			return false
		}
		if box.Meta.NumLines != meta.NumLines || box.Meta.Flags != meta.Flags {
			return false
		}
		if len(box.Meta.Groups) != len(meta.Groups) || len(box.Meta.Capsules) != len(meta.Capsules) {
			return false
		}
		for i, g := range meta.Groups {
			want, _ := g.Lines.Lines()
			got, err := box.Meta.Groups[i].Lines.Lines()
			if err != nil || !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Line maps of every density round-trip through the Rice code at the
// parameter the writer picks, and no other parameter codes them smaller.
func TestLineMapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		stride := 1 << rng.Intn(14)
		var lines []int
		next := rng.Intn(stride)
		for i := rng.Intn(300); i > 0; i-- {
			lines = append(lines, next)
			next += 1 + rng.Intn(stride)
		}
		k := riceParam(lines, next)
		enc := appendRice(nil, lines, k, next)
		for other := uint(0); other <= maxRiceParam; other++ {
			if n := len(appendRice(nil, lines, other, next)); n < len(enc) {
				t.Fatalf("stride %d: parameter %d codes %d bytes, chosen %d codes %d", stride, other, n, k, len(enc))
			}
		}
		got, err := decodeRice(enc, k, len(lines), next)
		if err != nil || !slices.Equal(got, lines) {
			t.Fatalf("stride %d k %d: decoded %v (%v), want %v", stride, k, got, err, lines)
		}
	}
}

// The first-touch validation rejects every way a stored map can disagree
// with its header.
func TestLineMapRejects(t *testing.T) {
	lines := []int{3, 4, 90, 91, 500} // at k = 4 the last gap is escaped
	const k = 4
	enc := appendRice(nil, lines, k, 501)
	if _, err := decodeRice(enc, k, len(lines), 501); err != nil {
		t.Fatalf("pristine map rejected: %v", err)
	}
	padded := bytes.Clone(enc)
	padded[len(padded)-1] |= 1
	for name, c := range map[string]struct {
		enc         []byte
		k           uint
		rows, limit int
	}{
		"line beyond block":   {enc, k, len(lines), 500},
		"fewer rows":          {enc, k, len(lines) - 1, 501},
		"more rows":           {enc, k, len(lines) + 1, 501},
		"truncated":           {enc[:len(enc)-1], k, len(lines), 501},
		"trailing byte":       {append(bytes.Clone(enc), 0), k, len(lines), 501},
		"nonzero padding":     {padded, k, len(lines), 501},
		"other parameter":     {enc, k + 1, len(lines), 501},
		"parameter too large": {enc, maxRiceParam + 1, len(lines), 501},
		"rows beyond stream":  {enc, k, 8*len(enc) + 1, 1 << 30},
		"negative rows":       {enc, k, -1, 501},
		// Line 0 as sixteen one-bits and a 7-bit zero, where "0" codes it.
		"escaped a short gap": {[]byte{0xff, 0xff, 0x00}, 0, 1, 100},
	} {
		if got, err := decodeRice(c.enc, c.k, c.rows, c.limit); err == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
	}
}

// A Meta that came out of ReadBox re-encodes to the same box without its
// line maps ever being decoded (the benchmark harness re-packs boxes so).
func TestBoxReencodeKeepsLineMapsPacked(t *testing.T) {
	meta, payloads := sampleMeta()
	data := WriteBox(meta, payloads, 0)
	box, err := ReadBox(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := WriteBox(box.Meta, payloads, 0); !bytes.Equal(again, data) {
		t.Fatal("re-encoded box differs")
	}
	for i, m := range box.Meta.lineMaps() {
		if !m.Pending() {
			t.Fatalf("line map %d was decoded by ReadBox or WriteBox", i)
		}
	}
	want := [][]int{{0, 2}, {1, 3, 4}, {5}}
	for i, m := range box.Meta.lineMaps() {
		if got, err := m.Lines(); err != nil || !slices.Equal(got, want[i]) {
			t.Fatalf("line map %d = %v (%v), want %v", i, got, err, want[i])
		}
	}
	if box.LineMapBytes() == 0 {
		t.Fatal("rev-2 box reports no line-map section")
	}
}
