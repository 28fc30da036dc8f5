package strmatch

import (
	"bytes"
	"testing"
)

// FuzzFixedWidthScan: ScanRows equals a per-row oracle on Value(i) for all
// four kinds. The values are data cut at '\n' and truncated to the width
// (1–40); the part is Pad-free and may straddle rows of the packed buffer.
func FuzzFixedWidthScan(f *testing.F) {
	f.Add([]byte("ERR\nSUCC\nERRX\nXERR\nRRS\n"), uint8(3), "ERR")
	f.Add([]byte("abcd\nabxy\n\naaaa\naaa"), uint8(3), "dab")
	f.Add([]byte("12345678901\n1234567890\n123456789012"), uint8(11), "12345678")
	f.Add([]byte("a\nb\na\n\nab"), uint8(0), "a")
	f.Fuzz(func(t *testing.T, data []byte, w uint8, part string) {
		if bytes.IndexByte([]byte(part), Pad) >= 0 {
			return // a keyword never holds the Pad byte
		}
		width := int(w)%40 + 1
		var vals []string
		for _, v := range bytes.Split(bytes.ReplaceAll(data, []byte{Pad}, []byte("x")), []byte("\n")) {
			vals = append(vals, string(v[:min(len(v), width)]))
		}
		fw := NewFixedWidth(padBuf(vals, width), width)
		oracle := map[Kind]func(v []byte) bool{
			Exact:  func(v []byte) bool { return bytes.Equal(v, []byte(part)) },
			Prefix: func(v []byte) bool { return bytes.HasPrefix(v, []byte(part)) },
			Suffix: func(v []byte) bool { return bytes.HasSuffix(v, []byte(part)) },
			Substr: func(v []byte) bool { return bytes.Contains(v, []byte(part)) },
		}
		for kind, match := range oracle {
			var want []int
			for i := 0; i < fw.Rows(); i++ {
				if match(fw.Value(i)) {
					want = append(want, i)
				}
			}
			if got := fw.FindRows(part, kind); !equalInts(got, want) {
				t.Fatalf("width %d values %q part %q kind %v: got %v, want %v", width, vals, part, kind, got, want)
			}
		}
	})
}
