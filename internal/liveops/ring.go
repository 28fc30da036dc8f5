package liveops

// ring is a rolling run of per-window buckets ending at the current window,
// epoch (a clock reading divided by the window length): the one ring behind
// the usage meter's windows and the SLO engine's minutes. Its epoch starts
// at 0, so the first advance jumps to the current window over a ring that
// is already zero. Callers lock it.
type ring[B any] struct {
	epoch   int64
	buckets []B
}

// advance moves the ring to window ep, zeroing every window skipped, and
// returns the current window's bucket. A clock that went backwards does not
// move it: every write lands in the current window, never a past one.
func (r *ring[B]) advance(ep int64) *B {
	if gap := ep - r.epoch; gap > 0 {
		for i := int64(1); i <= min(gap, int64(len(r.buckets))); i++ {
			var zero B
			*r.back(-i) = zero
		}
		r.epoch = ep
	}
	return r.back(0)
}

// back returns the bucket i windows before the current one.
func (r *ring[B]) back(i int64) *B {
	n := int64(len(r.buckets))
	return &r.buckets[((r.epoch-i)%n+n)%n]
}
