package ingest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
)

// chaosCorpus builds a stream with three sealed segments and a raw tail
// under a chaos-wrapped blob store (faults off until the test turns the
// knobs), with a cache small enough that every query reloads from
// storage. Returns the stream, the injector, and the full line oracle.
func chaosCorpus(t *testing.T, seed int64, policy blobstore.Policy) (*Stream, *faultinject.ChaosBlob, []string) {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxSealedBytes = 1
	chaos := faultinject.NewChaosBlob(blobstore.NewLocal(dir), seed)
	cfg.Blobs = blobstore.Wrap(chaos, policy)
	m := mustOpen(t, cfg)
	t.Cleanup(func() { m.Close() })

	var want []string
	for i := 0; i < 240; i++ {
		want = append(want, lineFor(i))
	}
	for _, cut := range [][2]int{{0, 80}, {80, 150}, {150, 200}} {
		appendLines(t, m, "acme", "app", want[cut[0]:cut[1]]...)
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
			t.Fatal(err)
		}
	}
	appendLines(t, m, "acme", "app", want[200:]...)
	return m.Lookup("acme/app"), chaos, want
}

// oracleMatches is the naive grep: the line numbers whose text matches.
func oracleMatches(want []string, needle string) map[int]string {
	out := map[int]string{}
	for i, l := range want {
		if strings.Contains(l, needle) {
			out[i] = l
		}
	}
	return out
}

// assertNeverWrong checks the fault-tolerance contract on one result:
// full results are byte-identical to the oracle; partial results are
// flagged "storage" and every returned match is an exact oracle line.
// Anything else — a wrong line, an unflagged subset — fails the test.
func assertNeverWrong(t *testing.T, tag string, res *core.Result, oracle map[int]string) {
	t.Helper()
	for i, ln := range res.Lines {
		wantEntry, ok := oracle[ln]
		if !ok {
			t.Fatalf("%s: line %d matched but the oracle says it should not", tag, ln)
		}
		if res.Entries[i] != wantEntry {
			t.Fatalf("%s: line %d entry %q, oracle %q", tag, ln, res.Entries[i], wantEntry)
		}
	}
	if !res.Partial {
		if len(res.Lines) != len(oracle) {
			t.Fatalf("%s: full (non-partial) result has %d matches, oracle %d — missing matches must be flagged",
				tag, len(res.Lines), len(oracle))
		}
		if len(res.Damaged) != 0 {
			t.Fatalf("%s: non-partial result carries damage %v", tag, res.Damaged)
		}
	} else if res.PartialReason != "storage" {
		t.Fatalf("%s: partial for %q, want storage", tag, res.PartialReason)
	}
}

// TestStorageChaosSweep drives the query path through a matrix of
// injected storage faults — error rates up to 50%, torn reads, latency,
// availability flaps, and mixes — and asserts the contract on every
// single result: clean error, correct flagged partial, or full result
// byte-identical to the no-fault oracle. Never a wrong match.
func TestStorageChaosSweep(t *testing.T) {
	fast := blobstore.Policy{
		MaxAttempts: 3, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond,
		BreakerFailures: -1,
	}
	breakered := fast
	breakered.BreakerFailures = 3
	breakered.BreakerOpenFor = 2 * time.Millisecond

	cases := []struct {
		name    string
		policy  blobstore.Policy
		inject  func(c *faultinject.ChaosBlob)
		queries int
	}{
		{"errors-10pct", fast, func(c *faultinject.ChaosBlob) { c.SetErrRate(0.10) }, 40},
		{"errors-50pct", fast, func(c *faultinject.ChaosBlob) { c.SetErrRate(0.50) }, 40},
		{"torn-25pct", fast, func(c *faultinject.ChaosBlob) { c.SetTornRate(0.25) }, 40},
		{"latency-1ms", fast, func(c *faultinject.ChaosBlob) { c.SetLatency(time.Millisecond) }, 10},
		{"flap-breaker", breakered, func(c *faultinject.ChaosBlob) { c.SetFlap(10, 5) }, 40},
		{"mixed-worst", fast, func(c *faultinject.ChaosBlob) {
			c.SetErrRate(0.30)
			c.SetTornRate(0.20)
			c.SetLatency(100 * time.Microsecond)
		}, 40},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, chaos, want := chaosCorpus(t, int64(1000+ci), tc.policy)
			oracle := oracleMatches(want, "ERROR")

			// Healthy first: the oracle must be reachable fault-free.
			base := queryAll(t, st, "ERROR")
			if base.Partial || len(base.Lines) != len(oracle) {
				t.Fatalf("healthy baseline: %d matches partial=%v, oracle %d",
					len(base.Lines), base.Partial, len(oracle))
			}

			tc.inject(chaos)
			full, partial := 0, 0
			for q := 0; q < tc.queries; q++ {
				res, err := st.Search(context.Background(), "ERROR", core.SearchOpts{})
				if err != nil {
					// A clean error satisfies the contract only if it is
					// classified — never a raw panic or a wrong result.
					t.Fatalf("query %d: unexpected error %v (the degrade path should absorb storage faults)", q, err)
				}
				assertNeverWrong(t, fmt.Sprintf("query %d", q), res, oracle)
				if res.Partial {
					partial++
				} else {
					full++
				}
			}
			t.Logf("%s: %d full, %d partial, injector: %d errors, %d torn reads over %d ops",
				tc.name, full, partial, chaos.Injected(), chaos.Torn(), chaos.Ops())
			if chaos.Injected() == 0 && chaos.Torn() == 0 && tc.name != "latency-1ms" {
				t.Fatal("no faults were actually injected; the sweep proved nothing")
			}

			// Faults off: the stream must recover to full results without
			// a restart (transient quarantine would break this).
			chaos.SetErrRate(0)
			chaos.SetTornRate(0)
			chaos.SetLatency(0)
			chaos.SetFlap(0, 0)
			deadline := time.Now().Add(5 * time.Second)
			for {
				res := queryAll(t, st, "ERROR")
				if !res.Partial && len(res.Lines) == len(oracle) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stream did not recover after faults cleared: partial=%v matches=%d",
						res.Partial, len(res.Lines))
				}
				// An open breaker needs its window to elapse and a probe
				// to succeed; just re-query.
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStorageChaosSoak hammers one stream from concurrent queriers while
// a flapper toggles the backend between healthy, erroring, torn, and
// hard-down — under -race via the CI storage-fault step — and asserts
// the never-wrong contract on every result. A background appender and
// sealer keep the segment structure moving (appended filler never
// matches, so the oracle stays fixed).
func TestStorageChaosSoak(t *testing.T) {
	dur := 10 * time.Second
	if testing.Short() {
		dur = 2 * time.Second
	}
	policy := blobstore.Policy{
		MaxAttempts: 3, BackoffBase: 10 * time.Microsecond, BackoffMax: 100 * time.Microsecond,
		BreakerFailures: 5, BreakerOpenFor: 3 * time.Millisecond,
	}
	st, chaos, want := chaosCorpus(t, 4242, policy)
	oracle := oracleMatches(want, "ERROR")
	m := st.m

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Flapper: rotate through fault regimes every few milliseconds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		regime := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			switch regime % 4 {
			case 0: // healthy
				chaos.SetErrRate(0)
				chaos.SetTornRate(0)
				chaos.SetFlap(0, 0)
			case 1: // transient errors
				chaos.SetErrRate(0.4)
			case 2: // torn reads on top
				chaos.SetTornRate(0.3)
			case 3: // hard down: breaker territory
				chaos.SetFlap(8, 8)
			}
			regime++
		}
	}()

	// Appender: filler lines that never match "ERROR", plus periodic
	// seals so fresh sealed segments enter rotation mid-soak.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := m.Append("acme", "app", []string{fmt.Sprintf("filler ok n=%d", n)}); err != nil {
				continue // backpressure under chaos is fine
			}
			n++
			if n%100 == 0 {
				m.TriggerSeal(context.Background(), "acme", "app") // error under chaos is fine; sealer retries
			}
		}
	}()

	var queries, partials atomic.Int64
	var failed atomic.Value // first failure message
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.Search(context.Background(), "ERROR", core.SearchOpts{})
				if err != nil {
					failed.CompareAndSwap(nil, fmt.Sprintf("worker %d: query error %v", w, err))
					return
				}
				queries.Add(1)
				if res.Partial {
					partials.Add(1)
					if res.PartialReason != "storage" {
						failed.CompareAndSwap(nil, fmt.Sprintf("worker %d: partial reason %q", w, res.PartialReason))
						return
					}
				}
				for i, ln := range res.Lines {
					wantEntry, ok := oracle[ln]
					if !ok || res.Entries[i] != wantEntry {
						failed.CompareAndSwap(nil, fmt.Sprintf("worker %d: wrong match at line %d: %q", w, ln, res.Entries[i]))
						return
					}
				}
				if !res.Partial && len(res.Lines) != len(oracle) {
					failed.CompareAndSwap(nil, fmt.Sprintf("worker %d: unflagged subset: %d of %d", w, len(res.Lines), len(oracle)))
					return
				}
			}
		}(w)
	}

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	q, p := queries.Load(), partials.Load()
	t.Logf("soak: %d queries (%d partial) over %v; injector: %d errors, %d torn reads, %d ops",
		q, p, dur, chaos.Injected(), chaos.Torn(), chaos.Ops())
	if q == 0 {
		t.Fatal("soak ran zero queries")
	}
	if chaos.Injected() == 0 {
		t.Fatal("soak injected zero faults")
	}
}
