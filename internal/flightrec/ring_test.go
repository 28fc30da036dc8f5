package flightrec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"loggrep/internal/obsv"
)

// TestEventRingSoak pushes far more than ring capacity through the
// recorder from several goroutines (run under -race in CI) and asserts
// the ring stays exactly at capacity, keeps the newest events, and
// reports the true totals — the bounded-memory contract.
func TestEventRingSoak(t *testing.T) {
	const capacity = 64
	const writers = 8
	const perWriter = 100 // 800 events ≈ 12.5x capacity
	r := NewEventRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(&obsv.WideEvent{
					TraceID: fmt.Sprintf("%08x%08x", w, i),
					Command: strings.Repeat("x", 2048), // over the per-event cap
					DurNS:   int64(i),
				})
				if i%10 == 0 {
					_ = r.Snapshot() // concurrent readers must be safe
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), capacity)
	}
	for _, ev := range snap {
		if len(ev.Command) != maxCommandBytes {
			t.Fatalf("command not truncated to %d: %d", maxCommandBytes, len(ev.Command))
		}
	}

	// Sequential fill: eviction must keep exactly the newest events, in
	// order.
	r2 := NewEventRing(8)
	for i := 0; i < 100; i++ {
		r2.Add(&obsv.WideEvent{DurNS: int64(i)})
	}
	snap2 := r2.Snapshot()
	for i, ev := range snap2 {
		if want := int64(92 + i); ev.DurNS != want {
			t.Fatalf("slot %d holds event %d, want %d (oldest-first, newest kept)", i, ev.DurNS, want)
		}
	}
}

// TestEventRingAllocationCeiling pins the hot-path cost: recording into
// a full ring allocates nothing — the bounded copy lands in a
// preallocated slot.
func TestEventRingAllocationCeiling(t *testing.T) {
	r := NewEventRing(32)
	ev := &obsv.WideEvent{TraceID: "00c0ffee00c0ffee", Command: "ERROR AND state:503",
		Spans: []obsv.Span{{Name: "filter"}, {Name: "verify"}}}
	for i := 0; i < 64; i++ {
		r.Add(ev) // fill past capacity first
	}
	if avg := testing.AllocsPerRun(1000, func() { r.Add(ev) }); avg > 0 {
		t.Errorf("EventRing.Add allocates %.1f objects/op, want 0", avg)
	}
}

// TestMetricsRingSoak: same bounded-memory contract for the per-second
// samples ring.
func TestMetricsRingSoak(t *testing.T) {
	const capacity = 60
	m := NewMetricsRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10*capacity; i++ {
				m.Add(MetricSample{UnixMilli: int64(w*10*capacity + i), Goroutines: i})
				if i%50 == 0 {
					_ = m.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	if got := len(m.Snapshot()); got != capacity {
		t.Fatalf("Snapshot len = %d, want %d", got, capacity)
	}
}

// TestRecorderSoak drives ≥10x ring capacity of events and samples
// through a full Recorder with triggers armed but thresholds
// unreachable, asserting both rings hold their bounds.
func TestRecorderSoak(t *testing.T) {
	r := NewRecorder(Config{
		Dir:            t.TempDir(),
		eventRingSize:  32,
		metricsWindow:  40 * time.Second,
		sampleInterval: time.Second,
		LatencyTrigger: time.Hour, // armed, never fires
		Registry:       obsv.NewRegistry(),
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(&obsv.WideEvent{DurNS: int64(i), Status: 200})
			}
		}()
	}
	for i := 0; i < 100; i++ {
		r.Sample()
	}
	wg.Wait()
	st := r.Status()
	if st.EventsBuffered != 32 || st.EventsRecorded != 400 {
		t.Fatalf("status = %+v, want 32 buffered / 400 recorded", st)
	}
	if st.MetricSamples != 40 {
		t.Fatalf("metric samples = %d, want 40 (ring bound)", st.MetricSamples)
	}
	if st.BundlesWritten != 0 {
		t.Fatalf("no trigger should have fired: %+v", st)
	}
}
