// Pipeline: the production setting of the paper (§2) end to end — an
// application streams raw logs, the archive writer cuts 64 MB-style blocks
// and compresses them concurrently in the background, and later queries
// fan out across blocks in parallel, skipping blocks whose block stamp
// cannot contain the keywords.
//
//	go run ./examples/pipeline
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"loggrep"
	"loggrep/internal/loggen"
)

func main() {
	// Ingest: stream two days' worth of service logs into an archive with
	// 512 KB blocks (scaled down from the paper's 64 MB).
	opts := loggrep.DefaultArchiveOptions()
	opts.BlockBytes = 512 << 10
	opts.Workers = 4

	var sink bytes.Buffer
	w, err := loggrep.NewArchiveWriter(&sink, opts)
	if err != nil {
		log.Fatal(err)
	}
	lt, _ := loggen.ByName("L") // packet-handler log
	start := time.Now()
	total := 0
	for chunk := 0; chunk < 8; chunk++ { // the app flushes periodically
		raw := lt.Block(int64(chunk), 10000)
		if _, err := w.Write(raw); err != nil {
			log.Fatal(err)
		}
		total += len(raw)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d raw bytes -> %d compressed (%.1fx) in %s\n",
		total, sink.Len(), float64(total)/float64(sink.Len()), time.Since(start).Round(time.Millisecond))

	// Query: near-line debugging across the whole archive, in parallel.
	a, err := loggrep.OpenArchive(sink.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %d blocks, %d entries\n", a.NumBlocks(), a.NumLines())

	start = time.Now()
	res, err := a.Search(context.Background(), "WARNING AND Errorcode:0 AND Packet id:172397858", loggrep.SearchOpts{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query matched %d entries in %s across all blocks\n",
		len(res.Lines), time.Since(start).Round(time.Microsecond))
	for i := 0; i < len(res.Lines) && i < 3; i++ {
		fmt.Printf("  global line %7d: %s\n", res.Lines[i]+1, res.Entries[i])
	}
}
