// Quickstart: compress a log block and run a grep-like query on it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"loggrep"
	"loggrep/internal/loggen"
)

func main() {
	// A synthetic production-style log block (use your own []byte in
	// practice — one block is typically ≤ 64 MB of raw text).
	lt, _ := loggen.ByName("A")
	block := lt.Block(1, 20000)

	// Compress: static patterns are mined on a 5% sample, variable vectors
	// are decomposed by extracted runtime patterns into stamped Capsules,
	// each compressed independently.
	data := loggrep.Compress(block, loggrep.DefaultOptions())
	fmt.Printf("compressed %d -> %d bytes (%.1fx)\n",
		len(block), len(data), float64(len(block))/float64(len(data)))

	// Query directly on the compressed representation.
	store, err := loggrep.Open(data, loggrep.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := store.Search(ctx, "ERROR AND state:REQ_ST_CLOSED AND reqId:5E9D21AD5E473938", loggrep.SearchOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d matches, touching only %d capsules:\n", len(res.Lines), res.Decompressions)
	for i, line := range res.Lines {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(res.Lines)-5)
			break
		}
		fmt.Printf("  line %6d: %s\n", line+1, res.Entries[i])
	}

	// Results are exact — wildcards match within a token, AND/OR/NOT
	// combine search strings.
	res, err = store.Search(ctx, "ERROR AND peer 11.187.4.* NOT state:REQ_ST_IDLE", loggrep.SearchOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wildcard query: %d matches\n", len(res.Lines))
}
