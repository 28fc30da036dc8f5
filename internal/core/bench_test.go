package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/loggen"
)

// benchBox is the CapsuleBox of a 2 MiB block — the benchmark's archive
// block size — of seven log types, each a contiguous run, as an archive
// block cut from a type-contiguous stream holds them. Compressing it takes
// seconds, so every benchmark run shares one.
var benchBox = sync.OnceValue(func() []byte {
	const size = 2 << 20
	var block []byte
	for i, name := range []string{"A", "F", "G", "I", "J", "S", "U"} {
		lt, _ := loggen.ByName(name)
		for _, l := range lt.Lines(int64(1+i), size/64) {
			if len(block)+len(l)+1 > (i+1)*size/7 {
				break
			}
			block = append(append(block, l...), '\n')
		}
	}
	return Compress(block, DefaultOptions())
})

// BenchmarkReconstructAll restores a whole 2 MiB block. cold is a fresh
// store each time — Open, then ReconstructAll, decompressing every capsule —
// as restoring an archive does block by block. warm restores a store whose
// payloads an earlier ReconstructAll decoded already, which times row
// assembly alone.
func BenchmarkReconstructAll(b *testing.B) {
	data := benchBox()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		lines := 0
		for i := 0; i < b.N; i++ {
			st, err := Open(data, QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := st.ReconstructAll()
			if err != nil {
				b.Fatal(err)
			}
			lines += len(out)
		}
		b.ReportMetric(float64(lines)/b.Elapsed().Seconds(), "lines/s")
	})
	b.Run("warm", func(b *testing.B) {
		st, err := Open(data, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.ReconstructAll(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		lines := 0
		for i := 0; i < b.N; i++ {
			out, err := st.ReconstructAll()
			if err != nil {
				b.Fatal(err)
			}
			lines += len(out)
		}
		b.ReportMetric(float64(lines)/b.Elapsed().Seconds(), "lines/s")
	})
}

// BenchmarkOpen opens the 2 MiB block cold, as an archive does each block
// a query admits: ReadBox parses the CapsuleBox (directory, line-map
// table, blob framing), Open is a whole core.Open on top of it. Neither
// decompresses a capsule.
func BenchmarkOpen(b *testing.B) {
	data := benchBox()
	b.Run("ReadBox", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := capsule.ReadBox(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Open(data, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyBroad runs the broad "ERROR" query on a warm store with
// the Query Cache off: every payload is already decompressed, so the time
// is the filter's bitsets and the verification of every candidate.
func BenchmarkVerifyBroad(b *testing.B) {
	st, err := Open(benchBox(), QueryOptions{DisableCache: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := st.Search(context.Background(), "ERROR", SearchOpts{})
	if err != nil {
		b.Fatal(err)
	}
	if res.Matches < 1000 {
		b.Fatalf("broad query matched %d entries", res.Matches)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Search(context.Background(), "ERROR", SearchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Matches*b.N)/b.Elapsed().Seconds(), "entries/s")
}

// refineCommands derives up to n distinct refine-shaped commands,
// "<severity> AND <token>", from a block's lines, as the query-refine
// workload draws them: the token is the line's longest word of at least 12
// bytes holding a digit, past the two timestamp words, so each command
// matches few lines of one template.
func refineCommands(lines []string, n int) []string {
	seen := make(map[string]bool)
	var cmds []string
	for i := 0; i < len(lines) && len(cmds) < n; i += 7 {
		words := strings.Split(lines[i], " ")
		sev, tok := "", ""
		for _, w := range words {
			if sev == "" && (w == "ERROR" || w == "WARNING" || w == "INFO" || w == "DEBUG") {
				sev = w
			}
		}
		if sev == "" || len(words) < 3 {
			continue
		}
		for _, w := range words[2:] {
			if len(w) >= 12 && len(w) > len(tok) && strings.ContainsAny(w, "0123456789") && !strings.ContainsAny(w, `()"*`) {
				tok = w
			}
		}
		if tok != "" && !seen[tok] {
			seen[tok] = true
			cmds = append(cmds, sev+" AND "+tok)
		}
	}
	return cmds
}

// BenchmarkWarmRefine runs refine-shaped commands on a warm 2 MiB store
// with the Query Cache off: every payload is decoded and every scan cached
// by a first pass, so the time and the allocations are the filter engine's
// (stamps, runtime-pattern matching, row sets) and the verification of the
// few candidates.
func BenchmarkWarmRefine(b *testing.B) {
	st, err := Open(benchBox(), QueryOptions{DisableCache: true})
	if err != nil {
		b.Fatal(err)
	}
	lines, err := st.ReconstructAll()
	if err != nil {
		b.Fatal(err)
	}
	cmds := refineCommands(lines, 400)
	if len(cmds) < 100 {
		b.Fatalf("only %d refine commands", len(cmds))
	}
	ctx := context.Background()
	for _, c := range cmds {
		if _, err := st.Search(ctx, c, SearchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Search(ctx, cmds[i%len(cmds)], SearchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
