package loggrep_test

import (
	"context"
	"fmt"

	"loggrep"
)

// The paper's running example (§3): a log block with two static patterns,
// compressed and queried exactly.
func Example() {
	block := []byte("T134 bk.FF.13 read\n" +
		"T169 state: SUC#1604\n" +
		"T179 bk.C5.15 read\n" +
		"T181 state: ERR#1623\n")

	data := loggrep.Compress(block, loggrep.DefaultOptions())
	store, err := loggrep.Open(data, loggrep.QueryOptions{})
	if err != nil {
		panic(err)
	}
	res, err := store.Search(context.Background(), "ERR#16*", loggrep.SearchOpts{})
	if err != nil {
		panic(err)
	}
	for i, line := range res.Lines {
		fmt.Printf("%d: %s\n", line+1, res.Entries[i])
	}
	// Output:
	// 4: T181 state: ERR#1623
}

// Sessions implement the refining mode: each clause narrows the previous
// result, and revisiting an earlier step is served from the query cache.
func ExampleSession() {
	block := []byte("job 17 state ok\n" +
		"job 23 state fail\n" +
		"job 40 state ok\n" +
		"job 99 state fail\n")
	store, err := loggrep.Open(loggrep.Compress(block, loggrep.DefaultOptions()), loggrep.QueryOptions{})
	if err != nil {
		panic(err)
	}
	s := store.NewSession()
	res, _ := s.Refine("state")
	fmt.Println(len(res.Lines), "after", s.Command())
	res, _ = s.Refine("fail")
	fmt.Println(len(res.Lines), "after", s.Command())
	// Output:
	// 4 after state
	// 2 after state AND fail
}

// A CountOnly search answers grep -c, without reconstructing entries when
// every search string is a single wildcard-free keyword.
func ExampleStore_Search_countOnly() {
	block := []byte("a ok 1\nb fail 2\nc ok 3\nd fail 4\ne fail 5\n")
	store, err := loggrep.Open(loggrep.Compress(block, loggrep.DefaultOptions()), loggrep.QueryOptions{})
	if err != nil {
		panic(err)
	}
	res, _ := store.Search(context.Background(), "fail", loggrep.SearchOpts{CountOnly: true})
	fmt.Println(res.Matches, res.Lines)
	// Output:
	// 3 []
}
