package capsule_test

import (
	"bytes"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
)

var sink []byte

// BenchmarkWriteBox packs one real 2 MiB block's directory and payloads:
// the Packer stage as core.Compress runs it, without parse and extract.
func BenchmarkWriteBox(b *testing.B) {
	lt, _ := loggen.ByName("G")
	raw := lt.Block(1, 40000)
	block := raw[:bytes.LastIndexByte(raw[:2<<20], '\n')+1]
	box, err := capsule.ReadBox(core.Compress(block, core.DefaultOptions()))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, len(box.Meta.Capsules))
	for id := range payloads {
		if payloads[id], err = box.Payload(id); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = capsule.WriteBox(box.Meta, payloads, 0)
	}
}
