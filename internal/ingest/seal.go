package ingest

import (
	"context"
	"fmt"
	"os"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/flightrec"
	"loggrep/internal/obsv"
	"loggrep/internal/retry"
)

// maxSealBackoff caps the per-segment retry delay of a persistently
// failing seal, which doubles from SealInterval per consecutive failure.
const maxSealBackoff = 30 * time.Second

// kickSealer nudges the sealer without blocking (it also wakes on its
// poll ticker, so a missed kick only delays a seal, never loses one).
func (m *Manager) kickSealer() {
	select {
	case m.sealNow <- struct{}{}:
	default:
	}
}

// sealer is the background loop: it rolls aged active segments and seals
// every closed raw segment, oldest first, one stream at a time.
// Compression itself parallelizes across blocks inside archive.Compress.
func (m *Manager) sealer() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.SealInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.sealNow:
		case <-tick.C:
		}
		for _, st := range m.snapshotStreams() {
			st.rollAged(m.cfg.SealAge)
			// Errors are already counted (mSealFailures) and the segment
			// stays raw and queryable; retries back off per segment.
			_ = st.sealPending(m.stop, false, 0)
		}
	}
}

// rollAged closes the active segment once it has outlived SealAge, so
// low-rate streams still reach compressed, indexed form promptly.
func (st *Stream) rollAged(age time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := len(st.segs); n > 0 {
		sg := st.segs[n-1]
		if sg.f != nil && len(sg.lines) > 0 && time.Since(sg.born) >= age {
			st.rollLocked()
		}
	}
}

// sealPending seals every closed raw segment in sequence order, returning
// the first seal error (the segment stays raw and is retried with
// per-segment exponential backoff). stop (may be nil) aborts between
// segments on shutdown; force ignores backoff windows (operator-triggered
// seals should try now, not wait out a past failure's delay); bound > 0
// restricts the pass to segments with seq <= bound, so a caller chasing a
// fixed snapshot of the stream cannot be kept looping forever by freshly
// rolled segments arriving behind it.
func (st *Stream) sealPending(stop <-chan struct{}, force bool, bound uint64) error {
	for {
		if stop != nil {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		sg := st.claimNext(force, bound)
		if sg == nil {
			return nil
		}
		if err := st.sealOne(sg); err != nil {
			mSealFailures.Inc()
			// Leave the segment raw (still queryable, still on disk as
			// WAL) and back off: each attempt re-compresses the whole
			// segment, so hammering a persistently failing seal (disk
			// full) every SealInterval burns CPU exactly when the host is
			// least able to spare it. Test failpoints land here too.
			st.mu.Lock()
			sg.sealing = false
			sg.failures++
			// Un-jittered: one sealer paces one segment, there is no herd.
			sg.retryAt = time.Now().Add(retry.Backoff(st.m.cfg.SealInterval, maxSealBackoff, sg.failures))
			st.mu.Unlock()
			return err
		}
	}
}

// claimNext marks the oldest sealable raw segment and returns it, nil if
// none. Unless force, segments inside their failure backoff window are
// skipped; bound > 0 skips segments with seq > bound.
func (st *Stream) claimNext(force bool, bound uint64) *segment {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sg := range st.segs {
		if sg.sealed || sg.f != nil || sg.sealing {
			continue
		}
		if bound > 0 && sg.seq > bound {
			continue
		}
		if !force && !sg.retryAt.IsZero() && time.Now().Before(sg.retryAt) {
			continue
		}
		sg.sealing = true
		return sg
	}
	return nil
}

// sealOne rolls one closed raw segment into a sealed archive. The
// protocol is crash-safe at every step:
//
//  1. compress the segment's lines into a v2 archive (templates mined by
//     the sample-based parser; block-skipping index sections appended) —
//     all in memory, nothing on disk yet;
//  2. publish seg-N.lgrep with a durable atomic temp+rename
//     (flightrec.AtomicWriteFileSync: temp file fsynced before the
//     rename, directory fsynced after) — a crash before the rename
//     leaves only a temp file (removed on replay) and the intact WAL;
//  3. remove wal-N.wal — a crash before this leaves both files, and
//     replay resolves the pair in the archive's favor, deleting the WAL.
//
// Step 2's fsyncs order the protocol against host crashes, not just
// process kills: the WAL is deleted only once the archive's bytes AND
// its directory entry are durable, so no interleaving of a crash with
// the page cache can make the rename+unlink stick while the archive's
// data blocks are lost.
//
// The WAL and the archive share the sequence number, so "both exist"
// always means "seal completed, cleanup didn't", never a duplicate.
func (st *Stream) sealOne(sg *segment) error {
	t0 := time.Now()
	raw := make([]byte, 0, sg.rawBytes)
	for _, l := range sg.lines {
		raw = append(raw, l...)
		raw = append(raw, '\n')
	}
	data, err := archive.Compress(raw, st.m.cfg.Archive)
	if err != nil {
		return err
	}
	if err := st.m.hook("compressed"); err != nil {
		return err
	}
	if err := flightrec.AtomicWriteFileSync(segPath(st.dir, sg.seq), data, 0o644); err != nil {
		return err
	}
	if err := st.m.hook("published"); err != nil {
		return err
	}
	// Cleanup failures are deliberately not fatal: the archive is
	// published, so replay will finish the job.
	os.Remove(walPath(st.dir, sg.seq))
	if err := st.m.hook("cleaned"); err != nil {
		return err
	}
	a, err := archive.Open(data)
	if err != nil {
		// The bytes on disk came from our own writer; failing to reopen
		// them is a bug, not an operational state. Keep serving the raw
		// lines (no data loss) and surface the failure.
		return fmt.Errorf("ingest: reopen sealed segment %d: %w", sg.seq, err)
	}
	st.mu.Lock()
	sg.sealed = true
	sg.numLines = a.NumLines()
	sg.sealedBytes = int64(len(data))
	freed := sg.rawBytes
	sg.lines, sg.rawBytes = nil, 0
	sg.sealing = false
	sg.failures, sg.retryAt = 0, time.Time{}
	st.mu.Unlock()
	st.m.cache.admit(sg, a, int64(len(data)))
	st.m.tenantAdd(st.tenant, -freed)
	mSeals.Inc()
	mSealedRawBytes.Add(freed)
	mSealedCompBytes.Add(int64(len(data)))
	st.sealFinished(t0, sg.seq, int64(a.NumLines()), freed, int64(len(data)))
	return nil
}

// sealFinished records a completed seal's telemetry: the latency
// observation with a fresh trace id as its exemplar, and — when the
// manager has a SealEvents sink — a wide event carrying that same trace
// id, so the exemplar on /metrics, the event, and the exported OTLP span
// all join on one id exactly like the request path.
func (st *Stream) sealFinished(t0 time.Time, seq uint64, lines, rawBytes, compBytes int64) {
	dur := time.Since(t0)
	if st.m.cfg.SealEvents == nil {
		hSealNS.Observe(dur.Nanoseconds())
		return
	}
	traceID := obsv.NewTraceID128()
	hSealNS.ObserveExemplar(dur.Nanoseconds(), traceID)
	st.m.cfg.SealEvents(&obsv.WideEvent{
		TraceID:  traceID,
		SpanID:   obsv.NewSpanID(),
		Time:     t0.UTC().Format(time.RFC3339Nano),
		Endpoint: "seal",
		Source:   st.tenant + "/" + st.name,
		DurNS:    dur.Nanoseconds(),
		Lines:    lines,
		Spans: []obsv.Span{{
			Name:  "seal",
			DurNS: dur.Nanoseconds(),
			Attrs: []obsv.Attr{
				{Key: "seq", Val: int64(seq)},
				{Key: "raw_bytes", Val: rawBytes},
				{Key: "comp_bytes", Val: compBytes},
			},
		}},
	})
}

// hook runs the test failpoint, nil-safe.
func (m *Manager) hook(stage string) error {
	if m.cfg.sealHook == nil {
		return nil
	}
	return m.cfg.sealHook(stage)
}

// TriggerSeal synchronously rolls the stream's active segment and seals
// the whole raw tail. Operators use it (POST /ingest/seal) to force a
// stream into queryable-archive form — e.g. before copying segments off
// the box — and tests use it for deterministic sealing. A cancelled ctx
// stops it between segments with the cancellation cause; segments
// already sealed stay sealed.
func (m *Manager) TriggerSeal(ctx context.Context, tenant, stream string) error {
	m.mu.Lock()
	st := m.streams[tenant+"/"+stream]
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if st == nil {
		return fmt.Errorf("%w: no such stream %s/%s", ErrBadInput, tenant, stream)
	}
	// Bound the job to segments existing at entry: under continuous
	// concurrent appends there is always a fresh active segment, and
	// waiting for "no raw segments at all" would spin out the deadline
	// even though sealing is healthy.
	st.mu.Lock()
	st.rollLocked()
	var bound uint64
	for _, sg := range st.segs {
		if sg.seq > bound {
			bound = sg.seq
		}
	}
	st.mu.Unlock()
	if bound == 0 {
		return nil // nothing existed at entry; nothing to force
	}
	// The background sealer may hold claims on some segments; seal what
	// is claimable here and briefly wait out the rest.
	deadline := time.Now().Add(time.Minute)
	for {
		if err := st.sealPending(ctx.Done(), true, bound); err != nil {
			return fmt.Errorf("ingest: seal %s/%s: %w", tenant, stream, err)
		}
		st.mu.Lock()
		var raw *segment
		for _, sg := range st.segs {
			if !sg.sealed && sg.seq <= bound {
				raw = sg
				break
			}
		}
		st.mu.Unlock()
		if raw == nil {
			return nil
		}
		if err := context.Cause(ctx); err != nil {
			return fmt.Errorf("ingest: seal %s/%s: %w", tenant, stream, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest: seal %s/%s: segment %d still raw", tenant, stream, raw.seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
