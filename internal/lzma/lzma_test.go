package lzma

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	comp := Compress(data)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress(%d bytes): %v", len(data), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: in %d bytes, out %d bytes", len(data), len(got))
	}
}

func TestRoundTripEmpty(t *testing.T)   { roundTrip(t, nil) }
func TestRoundTripOneByte(t *testing.T) { roundTrip(t, []byte{0x42}) }
func TestRoundTripAllZero(t *testing.T) { roundTrip(t, make([]byte, 100000)) }
func TestRoundTripAllBytes(t *testing.T) {
	data := make([]byte, 256*17)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data)
}

func TestRoundTripRepetitive(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte("abcabcabd"), 5000))
	roundTrip(t, []byte(strings.Repeat("2021-01-04 12:33:01.123 INFO write to file:/tmp/1FF8ab.log\n", 2000)))
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 100, 4096, 1 << 17} {
		data := make([]byte, n)
		rng.Read(data)
		roundTrip(t, data)
	}
}

func TestRoundTripLogLike(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	for i := 0; i < 20000; i++ {
		b.WriteString("T")
		b.WriteString(string(rune('0' + rng.Intn(10))))
		b.WriteString(" bk.")
		b.WriteString([]string{"FF", "C5", "0A"}[rng.Intn(3)])
		b.WriteString(".")
		b.WriteString(string(rune('0' + rng.Intn(10))))
		b.WriteString(" state: ")
		b.WriteString([]string{"SUC", "ERR"}[rng.Intn(2)])
		b.WriteString("#16")
		b.WriteString(string(rune('0' + rng.Intn(10))))
		b.WriteString("\n")
	}
	roundTrip(t, b.Bytes())
}

// Property: arbitrary byte slices round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		comp := Compress(data)
		got, err := Decompress(comp)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The compressor must beat DEFLATE on repetitive log-like data — that is the
// trade the paper makes by choosing LZMA over zstd/gzip.
func TestBeatsFlateOnLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b bytes.Buffer
	paths := []string{"/root/usr/admin/a.log", "/root/usr/admin/bb.log", "/root/usr/admin/ccc.log"}
	for i := 0; i < 30000; i++ {
		b.WriteString("2021-01-04 12:33:0")
		b.WriteByte(byte('0' + rng.Intn(10)))
		b.WriteString(" INFO write to file:")
		b.WriteString(paths[rng.Intn(len(paths))])
		b.WriteString(" size=")
		b.WriteByte(byte('0' + rng.Intn(10)))
		b.WriteByte(byte('0' + rng.Intn(10)))
		b.WriteString("\n")
	}
	raw := b.Bytes()
	comp := Compress(raw)

	var fbuf bytes.Buffer
	fw, _ := flate.NewWriter(&fbuf, flate.BestCompression)
	fw.Write(raw)
	fw.Close()

	t.Logf("raw=%d lzma=%d flate=%d", len(raw), len(comp), fbuf.Len())
	if len(comp) >= fbuf.Len() {
		t.Errorf("lzma-lite (%d) did not beat flate (%d) on log-like data", len(comp), fbuf.Len())
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("NOPE----"),
		[]byte(magic), // missing length
	}
	for _, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("Decompress(%q) succeeded, want error", c)
		}
	}
	// Truncations and bit flips of a valid stream must error or at worst
	// produce output — never panic.
	valid := Compress(bytes.Repeat([]byte("hello log world "), 500))
	for cut := 0; cut < len(valid); cut += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", cut, r)
				}
			}()
			Decompress(valid[:cut])
		}()
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mut := bytes.Clone(valid)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit flip: %v", r)
				}
			}()
			Decompress(mut)
		}()
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	frame := append([]byte(magic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := Decompress(frame); err == nil {
		t.Fatal("huge length accepted")
	}
}

func BenchmarkCompressLogLike(b *testing.B) {
	data := bytes.Repeat([]byte("2021-01-04 12:33:01.123 INFO write to file:/tmp/1FF8ab.log\n"), 5000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(data)
	}
}

func BenchmarkDecompressLogLike(b *testing.B) {
	data := bytes.Repeat([]byte("2021-01-04 12:33:01.123 INFO write to file:/tmp/1FF8ab.log\n"), 5000)
	comp := Compress(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompress(comp)
	}
}
