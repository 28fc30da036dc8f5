package main

import "time"

// clock is the time source of the open-loop scheduler; tests substitute a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopSample is one operation of an open loop.
type openLoopSample struct {
	// FromDue is the time from when the operation was due to be sent to
	// when it completed: what a caller who acts on a schedule of its own
	// waits, including the wait a stall imposed on later operations.
	FromDue time.Duration
	// Late is how long after its due time the generator sent it.
	Late time.Duration
	// Service is the time from sending to completion.
	Service time.Duration
}

// runOpenLoop issues n operations on one connection at a fixed interval:
// operation i is due at start + i*interval whether or not earlier ones have
// finished. A shipper or an operator acts independently of how fast the
// server answers, so latency is counted from the due time, and how late the
// generator itself ran is reported beside it. op returning false stops the
// loop early (the caller has recorded why).
func runOpenLoop(clk clock, start time.Time, interval time.Duration, n int, op func(i int) bool) []openLoopSample {
	samples := make([]openLoopSample, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		ok := op(i)
		done := clk.Now()
		samples = append(samples, openLoopSample{FromDue: done.Sub(due), Late: sent.Sub(due), Service: done.Sub(sent)})
		if !ok {
			break
		}
	}
	return samples
}
