package lzma_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/lzma"
)

// blockPayloads returns every capsule payload of the first 2 MiB block of
// log type lt, as the Packer hands them to lzma.Compress.
func blockPayloads(tb testing.TB, lt loggen.LogType) [][]byte {
	tb.Helper()
	const blockBytes = 2 << 20
	raw := lt.Block(1, 40000)
	if len(raw) < blockBytes {
		tb.Fatalf("type %s: %d bytes for 40000 lines, want a full block", lt.Name, len(raw))
	}
	block := raw[:bytes.LastIndexByte(raw[:blockBytes], '\n')+1]
	box, err := capsule.ReadBox(core.Compress(block, core.DefaultOptions()))
	if err != nil {
		tb.Fatal(err)
	}
	payloads := make([][]byte, len(box.Meta.Capsules))
	for id := range payloads {
		if payloads[id], err = box.Payload(id); err != nil {
			tb.Fatal(err)
		}
	}
	return payloads
}

// seedPayloads are the FuzzRoundTrip seeds plus the checked-in fuzz corpus
// files, taken as raw bytes.
func seedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	payloads := [][]byte{
		nil,
		[]byte("a"),
		[]byte("2021-01-04 12:33:01.123 INFO write to file:/tmp/1FF8ab.log"),
		bytes.Repeat([]byte("ab"), 500),
	}
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		tb.Fatalf("fuzz corpus: %d files, %v", len(files), err)
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	return payloads
}

// identityCorpus is the seeds followed by one block's payloads of every
// production log type, in a fixed order.
func identityCorpus(tb testing.TB) [][]byte {
	payloads := seedPayloads(tb)
	for _, lt := range loggen.Production() {
		payloads = append(payloads, blockPayloads(tb, lt)...)
	}
	return payloads
}

// parentSHA256 is the hash, as hashOutputs computes it, of what Compress
// emitted for identityCorpus at commit f994b61 — the last one whose encoder
// built every table per call. Stored boxes, the golden files and the
// benchmark's compression_ratio all assume these exact bytes.
const parentSHA256 = "03c51707ce4953689ad92840b777284458696fc885b3abae96898b9aedc19fb5"

func hashOutputs(outs [][]byte) string {
	h := sha256.New()
	for _, out := range outs {
		h.Write(binary.AppendUvarint(nil, uint64(len(out))))
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// A state that has compressed other payloads emits exactly what a fresh
// state emits, whatever came before, and a fresh state emits what the
// parent commit's per-call encoder did.
func TestReuseIdentity(t *testing.T) {
	payloads := identityCorpus(t)
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		want[i] = lzma.NewEncoder().Compress(p)
	}
	if got := hashOutputs(want); got != parentSHA256 {
		t.Fatalf("fresh-state outputs of %d payloads hash to %s, parent commit's hash to %s", len(payloads), got, parentSHA256)
	}

	bySize := make([]int, len(payloads))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(payloads[bySize[a]]) < len(payloads[bySize[b]]) })
	largeFirst := make([]int, len(bySize))
	for i, id := range bySize {
		largeFirst[len(bySize)-1-i] = id
	}
	orders := []struct {
		name string
		ids  []int
	}{
		{"large to small", largeFirst},
		{"small to large", bySize},
		{"shuffled", rand.New(rand.NewSource(13)).Perm(len(payloads))},
	}
	enc := lzma.NewEncoder() // one state through all three orders
	for _, o := range orders {
		for _, id := range o.ids {
			if got := enc.Compress(payloads[id]); !bytes.Equal(got, want[id]) {
				t.Fatalf("%s: payload %d (%d bytes): reused state emitted %d bytes that differ from a fresh state's %d", o.name, id, len(payloads[id]), len(got), len(want[id]))
			}
			if enc.RetainsData() {
				t.Fatalf("%s: state still references payload %d after compressing it", o.name, id)
			}
		}
	}
}

// The epoch base running out of int32 room must reset the head table, not
// wrap: outputs on both sides of the reset equal a fresh state's.
func TestEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b bytes.Buffer
	for b.Len() < 40<<10 {
		b.WriteString("2021-01-04 12:33:0")
		b.WriteByte(byte('0' + rng.Intn(10)))
		b.WriteString(" INFO write to file:/root/usr/admin/")
		b.WriteString([]string{"a.log", "bb.log", "ccc.log"}[rng.Intn(3)])
		b.WriteByte('\n')
	}
	payloads := [][]byte{b.Bytes(), b.Bytes()[100:9000], bytes.Repeat([]byte("ab"), 500), b.Bytes()[:30<<10]}
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		want[i] = lzma.NewEncoder().Compress(p)
	}
	// slack is the room left above the first payload's last position:
	// 0 is the last base that still fits it.
	for _, slack := range []int{-1, 0, 1, len(payloads[1]) - 1, len(payloads[1])} {
		enc := lzma.NewEncoder()
		enc.Compress(payloads[3]) // leave stale entries behind
		start := int32(math.MaxInt32 - len(payloads[0]) - slack)
		enc.SetBase(start)
		resets := 0
		for i, p := range payloads {
			before := enc.Base()
			if got := enc.Compress(p); !bytes.Equal(got, want[i]) {
				t.Fatalf("slack %d: payload %d differs from a fresh state's output (base %d -> %d)", slack, i, before, enc.Base())
			}
			if enc.Base() < before {
				resets++
			}
		}
		if resets != 1 {
			t.Errorf("slack %d: base reset %d times over the run, want exactly 1", slack, resets)
		}
	}
}

// Concurrent callers each get their own pooled state.
func TestCompressConcurrent(t *testing.T) {
	payloads := append(seedPayloads(t), blockPayloads(t, loggen.Production()[0])...)
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		want[i] = lzma.Compress(p)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(payloads); i += workers {
				if got := lzma.Compress(payloads[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d: payload %d differs from the serial output", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Once a state has seen a payload this size, compressing another allocates
// the returned frame and nothing else.
func TestSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("state:503 "), 10)
	enc := lzma.NewEncoder()
	enc.Compress(payload)
	if n := testing.AllocsPerRun(100, func() { enc.Compress(payload) }); n != 1 {
		t.Errorf("steady-state Compress of %d bytes: %v allocations, want 1 (the result)", len(payload), n)
	}
}

var sink []byte

// BenchmarkCompressCapsuleMix compresses one block's capsule payloads one
// by one: hundreds of calls, most of them under 256 bytes, which is what the
// Packer does. BenchmarkCompressLogLike's single 295 KB buffer hides any
// per-call cost.
func BenchmarkCompressCapsuleMix(b *testing.B) {
	lt, _ := loggen.ByName("G")
	payloads := blockPayloads(b, lt)
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			sink = lzma.Compress(p)
		}
	}
}
