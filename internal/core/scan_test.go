package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"loggrep/internal/blockindex"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// typeBlock renders lines of lt up to size bytes, cut at a line boundary.
func typeBlock(tb testing.TB, lt loggen.LogType, size int) []byte {
	tb.Helper()
	for n := size/64 + 64; ; n *= 2 {
		if blk := lt.Block(1, n); len(blk) >= size {
			return blk[:bytes.LastIndexByte(blk[:size], '\n')+1]
		}
	}
}

// indexSections encodes one block's digest as the index sections of a
// one-block archive whose frame is frameBytes long.
func indexSections(block []byte, frameBytes int, sc *blockindex.BlockScan) []byte {
	b := blockindex.NewBuilder()
	b.Add(0, bytes.Count(block, []byte{'\n'})+1, frameBytes, sc)
	return b.Sections()
}

// checkCompressScan seals block with opts and compares the digest the
// seal fed with blockindex.ScanBlock's walk, as encoded index sections.
// With sameBox it also checks that the box is Compress's, byte for byte.
func checkCompressScan(t *testing.T, name string, block []byte, opts Options, sameBox bool) {
	t.Helper()
	box, sc, scanNS := CompressScan(block, opts)
	if scanNS < 0 {
		t.Fatalf("%s: digest took %d ns", name, scanNS)
	}
	if sameBox && !bytes.Equal(box, Compress(block, opts)) {
		t.Fatalf("%s: CompressScan's box differs from Compress's", name)
	}
	got := indexSections(block, len(box), sc)
	want := indexSections(block, len(box), blockindex.ScanBlock(block))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the seal's index sections (%d B) differ from ScanBlock's (%d B)", name, len(got), len(want))
	}
}

// The digest the seal feeds from its parse encodes to the same index
// sections as ScanBlock's walk over the raw block, on every log type.
func TestCompressScanMatchesScanBlock(t *testing.T) {
	for _, lt := range loggen.All() {
		blk := typeBlock(t, lt, 2<<20)
		small := blk[:bytes.LastIndexByte(blk[:128<<10], '\n')+1]
		checkCompressScan(t, lt.Name+"/128KiB", small, DefaultOptions(), true)
		if !testing.Short() {
			checkCompressScan(t, lt.Name+"/2MiB", blk, DefaultOptions(), false)
		}
	}
}

// Every ablation path feeds every token: vectors stored whole, real or
// nominal extraction switched off, padding or stamps off.
func TestCompressScanEveryOption(t *testing.T) {
	toggles := map[string]func(*Options){
		"StaticOnly":     func(o *Options) { o.StaticOnly = true },
		"DisableReal":    func(o *Options) { o.DisableReal = true },
		"DisableNominal": func(o *Options) { o.DisableNominal = true },
		"DisablePadding": func(o *Options) { o.DisablePadding = true },
		"DisableStamps":  func(o *Options) { o.DisableStamps = true },
		"Chunked":        func(o *Options) { o.ChunkBytes = 4 << 10 },
	}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		blk := typeBlock(t, lt, 128<<10)
		for tn, set := range toggles {
			opts := DefaultOptions()
			set(&opts)
			checkCompressScan(t, name+"/"+tn, blk, opts, true)
		}
	}
}

// sharedValueBlock holds one token as a template literal and as a value
// of several variable vectors: "ERROR" is static in "ERROR happened ..."
// lines and a value of both word slots of a signature whose many variants
// merge into one all-variable template.
func sharedValueBlock() []byte {
	words := []string{"ERROR", "WARN", "INFO", "alpha", "beta", "gamma", "delta", "eps"}
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&sb, "ERROR happened at step%d\n", i)
			continue
		}
		fmt.Fprintf(&sb, "%s%s %s %s n%d\n", words[rng.Intn(len(words))], words[rng.Intn(len(words))],
			words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(100))
	}
	return []byte(sb.String())
}

// outlierBlock is a block whose lines are almost all parse outliers: one
// signature with more variants than the parser keeps merges into a
// template whose middle token is the sampled lines' constant, and every
// line between two samples carries another word there.
func outlierBlock() []byte {
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		mid := "CONST"
		if i%20 != 0 {
			mid = fmt.Sprintf("w%c%c", 'a'+i%26, 'a'+i/26%26)
		}
		fmt.Fprintf(&sb, "k%c%c %s v%d\n", 'a'+i/20%26, 'a'+i/520%26, mid, i)
	}
	return []byte(sb.String())
}

func TestCompressScanAdversarial(t *testing.T) {
	ob := outlierBlock()
	if p := len(logparse.Parse(ob, logparse.DefaultOptions()).Outliers); 10*p < 9*bytes.Count(ob, []byte{'\n'}) {
		t.Fatalf("outlier block parses to only %d outlier lines", p)
	}
	rng := rand.New(rand.NewSource(11))
	var long strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&long, "key=%s val %s%d\n", strings.Repeat("long", 25+i%5), strings.Repeat("9", 120), i)
	}
	binary := make([]byte, 16<<10)
	rng.Read(binary)
	for i, b := range binary {
		if b == 0 {
			binary[i] = 1
		}
	}
	blocks := map[string][]byte{
		"empty":            nil,
		"only-newlines":    bytes.Repeat([]byte{'\n'}, 100),
		"outliers":         ob,
		"overlong-tokens":  []byte(long.String()),
		"no-final-newline": []byte("alpha beta 12\ngamma delta-42 final_token_1234"),
		"crlf":             []byte(strings.Repeat("GET /index.html 200 12ms\r\nPOST /api 500\r\n", 300)),
		"cr-alone":         []byte("a\rb c\r\r d\n\r\n\rx 1\r"),
		"shared-value":     sharedValueBlock(),
		"binary":           binary,
		"delimiters-only":  []byte(" \t,;\"()[]= \n,,,"),
	}
	if !testing.Short() {
		// Random tokens overflow the digest's gram set: both drop the
		// bloom and keep the postings.
		var big strings.Builder
		for big.Len() < 2<<20+(1<<19) {
			fmt.Fprintf(&big, "tok ")
			for j := 0; j < 120; j++ {
				big.WriteByte('!' + byte(rng.Intn(90)))
			}
			big.WriteByte('\n')
		}
		blocks["gram-overflow"] = []byte(big.String())
	}
	for name, blk := range blocks {
		checkCompressScan(t, name, blk, DefaultOptions(), true)
	}
}

// FuzzCompressScan: on any text block the seal's digest equals
// ScanBlock's, under the default options and under the ablation picked by
// the block's first byte.
func FuzzCompressScan(f *testing.F) {
	f.Add([]byte("T134 bk.FF.13 read\nT169 state: SUC#1604\n"))
	f.Add([]byte(""))
	f.Add([]byte("a\r\nb\r\n\n x=1 x=2 x=1"))
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) > 1<<14 {
			return
		}
		for i, b := range block {
			if b == 0 {
				block[i] = 1
			}
		}
		checkCompressScan(t, "default", block, DefaultOptions(), true)
		if len(block) > 0 {
			opts := DefaultOptions()
			switch block[0] % 4 {
			case 0:
				opts.StaticOnly = true
			case 1:
				opts.DisableReal = true
			case 2:
				opts.DisableNominal = true
			case 3:
				opts.DisablePadding = true
			}
			checkCompressScan(t, "ablation", block, opts, true)
		}
	})
}

// The bytes a seal allocates per raw byte of a 2 MiB block of types A, G
// and S are bounded. Compress measured 7.2–8.2 and CompressScan, which
// also builds the index digest and its 2 MB gram table, 8.2–9.2; the race
// detector's pools drop items and add about 0.2. Before the columns were
// sized up front, the nominal dictionary built from the category
// decision's distinct pass and the digest fed from the parse, Compress
// alone allocated 13.5–15.8, and the archive writer's ScanBlock added
// about 2 more.
func TestCompressAllocBound(t *testing.T) {
	seals := []struct {
		name  string
		bound float64
		seal  func([]byte)
	}{
		{"Compress", 10, func(b []byte) { Compress(b, DefaultOptions()) }},
		{"CompressScan", 11, func(b []byte) { CompressScan(b, DefaultOptions()) }},
	}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		blk := typeBlock(t, lt, 2<<20)
		for _, s := range seals {
			s.seal(blk) // pools and lazily built tables
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s.seal(blk)
			runtime.ReadMemStats(&m1)
			perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(blk))
			t.Logf("%s/%s: %.2f B allocated per raw byte", name, s.name, perByte)
			if perByte > s.bound {
				t.Errorf("%s: %s allocated %.2f B per raw byte, bound %.0f", name, s.name, perByte, s.bound)
			}
		}
	}
}
