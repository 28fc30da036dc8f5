package faultinject

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"loggrep/internal/blobstore"
)

// memBlob is a single-blob in-memory backend for injector tests.
type memBlob struct{ data []byte }

func (m *memBlob) Get(context.Context, string) ([]byte, error) { return m.data, nil }

func TestChaosBlobDeterministic(t *testing.T) {
	run := func() ([]bool, int64) {
		c := NewChaosBlob(&memBlob{data: []byte("payload")}, 42)
		c.SetErrRate(0.5)
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := c.Get(context.Background(), "k")
			outcomes = append(outcomes, err == nil)
		}
		return outcomes, c.Injected()
	}
	a, an := run()
	b, bn := run()
	if an != bn {
		t.Fatalf("injected counts differ: %d vs %d", an, bn)
	}
	if an == 0 || an == 64 {
		t.Fatalf("injected = %d of 64, want a mix at rate 0.5", an)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical runs", i)
		}
	}
}

func TestChaosBlobInjectedErrorsAreRetryable(t *testing.T) {
	c := NewChaosBlob(&memBlob{data: []byte("x")}, 1)
	c.SetErrRate(1)
	_, err := c.Get(context.Background(), "k")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := blobstore.Classify(err); got != blobstore.ClassRetryable {
		t.Fatalf("Classify = %v, want retryable", got)
	}
}

func TestChaosBlobTornReadsCorruptSilently(t *testing.T) {
	orig := []byte("a perfectly healthy archive segment")
	c := NewChaosBlob(&memBlob{data: orig}, 7)
	c.SetTornRate(1)
	sawCorrupt := false
	for i := 0; i < 16; i++ {
		data, err := c.Get(context.Background(), "k")
		if err != nil {
			t.Fatalf("torn read %d returned error %v; torn reads must be silent", i, err)
		}
		if !bytes.Equal(data, orig) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("torn rate 1 never corrupted the payload")
	}
	if c.Torn() == 0 {
		t.Fatal("torn counter stayed zero")
	}
}

func TestChaosBlobFlapSchedule(t *testing.T) {
	c := NewChaosBlob(&memBlob{data: []byte("x")}, 3)
	c.SetFlap(4, 2) // ops 0,1 down; 2,3 up; 4,5 down; ...
	var got []bool
	for i := 0; i < 8; i++ {
		_, err := c.Get(context.Background(), "k")
		got = append(got, err == nil)
	}
	want := []bool{false, false, true, true, false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flap op %d: ok=%v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestChaosBlobLatencyHonorsCancel(t *testing.T) {
	c := NewChaosBlob(&memBlob{data: []byte("x")}, 1)
	c.SetLatency(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the stall ignored the context", elapsed)
	}
}

func TestChaosBlobCleanPassthrough(t *testing.T) {
	c := NewChaosBlob(&memBlob{data: []byte("payload")}, 1)
	ctx := context.Background()
	if data, err := c.Get(ctx, "k"); err != nil || string(data) != "payload" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if c.Injected() != 0 || c.Torn() != 0 {
		t.Fatalf("clean passthrough injected %d errors, %d tears", c.Injected(), c.Torn())
	}
}
