package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/blobstore"
	"loggrep/internal/flightrec"
	"loggrep/internal/obsv"
)

// ErrBackpressure reports a batch refused because the tenant's raw-buffer
// budget is full. The data was NOT accepted; the client should back off
// and retry (loggrepd answers 429 + Retry-After). Sealing frees budget.
var ErrBackpressure = errors.New("ingest: tenant raw buffer full, retry later")

// ErrBadInput reports a malformed batch (bad name, oversized line,
// embedded newline, unparsable NDJSON). loggrepd answers 400.
var ErrBadInput = errors.New("ingest: bad input")

// ErrClosed reports an operation on a closed Manager.
var ErrClosed = errors.New("ingest: manager closed")

// MaxLineBytes bounds one log line; longer lines are refused as bad input
// rather than silently truncated.
const MaxLineBytes = 1 << 20

// Config configures a Manager. The zero value of every field picks the
// documented default.
type Config struct {
	// Dir is the ingest root. Layout: <dir>/<tenant>/<stream>/ holding
	// wal-NNNNNNNN.wal raw segments and seg-NNNNNNNN.lgrep sealed
	// archives, one per segment sequence number.
	Dir string
	// SealBytes closes the active segment once its raw size reaches this
	// many bytes (default 4 MB). Closed segments are sealed in the
	// background.
	SealBytes int64
	// SealAge closes a non-empty active segment this long after its first
	// line even if it is under SealBytes (default 30s), bounding how long
	// lines stay in the uncompressed tail.
	SealAge time.Duration
	// MaxTenantBytes bounds one tenant's unsealed (WAL raw-tail) bytes
	// across all its streams (default 64 MB). Appends past the bound fail
	// with ErrBackpressure.
	MaxTenantBytes int64
	// MaxSealedBytes bounds the sealed-archive (compressed) bytes kept
	// resident in memory across all streams (default 256 MB). Segments
	// past the bound are evicted least-recently-used and transparently
	// reloaded from disk by the next query touching them, so total
	// ingested volume no longer grows process memory — only disk.
	MaxSealedBytes int64
	// Blobs serves every sealed-segment and WAL read — replay at startup
	// and cache reloads at query time. Keys are "tenant/stream/<file>"
	// relative to Dir. Nil wraps the local filesystem under Dir in the
	// default fault policy (retries, breaker); tests substitute fault
	// injectors here. Writes never go through Blobs: the WAL fsync and
	// seal publish protocols keep their own durability ordering.
	Blobs blobstore.BlobStore

	// SealEvents, when set, receives one wide event per completed seal:
	// endpoint "seal", source "tenant/stream", a freshly minted 128-bit
	// trace id (seals are background work, owned by no request trace),
	// line count, duration, and a "seal" span whose attrs carry the
	// raw/compressed byte counts. loggrepd wires this to the OTLP
	// exporter so seal latency leaves the process like request latency
	// does; the same trace id is the seal histogram's exemplar. Called
	// synchronously from the sealer goroutine — keep it non-blocking.
	SealEvents func(*obsv.WideEvent)

	// sealHook, when set, is called between seal stages ("compressed",
	// "published", "cleaned") and aborts the seal on error. Crash-safety
	// tests use it to simulate a kill at every point of the protocol.
	sealHook func(stage string) error
	// walSyncHook, when set, runs after each WAL fsync; an error is
	// treated as a fsync failure. Tests use it to exercise the NACK
	// rollback path.
	walSyncHook func() error
	// archive configures seal-time compression; the zero value means
	// archive.DefaultOptions() (v2 frames + block-skipping index). Tests
	// shrink its blocks.
	archive archive.Options
	// sealInterval is the background sealer's poll cadence; zero picks
	// the constant of the same name. Tests shorten or stretch it.
	sealInterval time.Duration
}

// sealInterval is the background sealer's poll cadence.
const sealInterval = 250 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.SealBytes <= 0 {
		c.SealBytes = 4 << 20
	}
	if c.SealAge <= 0 {
		c.SealAge = 30 * time.Second
	}
	if c.MaxTenantBytes <= 0 {
		c.MaxTenantBytes = 64 << 20
	}
	if c.MaxSealedBytes <= 0 {
		c.MaxSealedBytes = 256 << 20
	}
	if c.archive == (archive.Options{}) {
		c.archive = archive.DefaultOptions()
	}
	if c.sealInterval <= 0 {
		c.sealInterval = sealInterval
	}
	if c.Blobs == nil {
		c.Blobs = blobstore.Wrap(blobstore.NewLocal(c.Dir), blobstore.Policy{Name: "ingest"})
	}
	return c
}

// segKey and walKey are a segment's blobstore keys, relative to Config.Dir.
func segKey(tenant, stream string, seq uint64) string {
	return fmt.Sprintf("%s/%s/seg-%08d.lgrep", tenant, stream, seq)
}

func walKey(tenant, stream string, seq uint64) string {
	return fmt.Sprintf("%s/%s/wal-%08d.wal", tenant, stream, seq)
}

// segment is one sequence-numbered slice of a stream. It is raw (lines in
// memory, WAL file on disk) until the sealer turns it into a sealed
// archive; the replacement happens in place, so global line numbering —
// segments in ascending sequence order — never moves.
type segment struct {
	seq uint64

	// Raw state (!sealed). lines is append-only while active and
	// immutable once closed; f is non-nil only while active; walOff is
	// the durable (acknowledged) byte length of the WAL file, the
	// truncation point should a later write or fsync fail.
	lines    []string
	rawBytes int64
	f        *os.File
	walOff   int64
	born     time.Time
	sealing  bool
	failures int       // consecutive seal failures, drives retry backoff
	retryAt  time.Time // earliest next background seal attempt

	// Sealed state. The archive itself lives in the Manager's bounded
	// resident cache (see cache.go) and is reloaded from seg-N.lgrep on
	// demand; only the counts stay pinned here.
	sealed      bool
	numLines    int
	sealedBytes int64
	// quarantined marks a sealed segment whose archive was unreadable or
	// corrupt at replay with no WAL to fall back on. It serves zero lines
	// and every query over the stream reports it as damage; only a
	// restart (after the operator restores the file) re-examines it.
	// Replay-time quarantine is permanent because the segment's line
	// count is unknown — admitting it later would renumber every line
	// after it mid-flight.
	quarantined bool
}

func (sg *segment) lineCount() int {
	if sg.sealed {
		return sg.numLines
	}
	return len(sg.lines)
}

// Stream is one tenant's named log stream: an ordered list of segments.
type Stream struct {
	tenant, name string
	dir          string
	m            *Manager

	mu      sync.Mutex
	segs    []*segment
	nextSeq uint64
	lastErr error // latched WAL write failure; stream refuses appends
}

// Tenant returns the stream's tenant name.
func (st *Stream) Tenant() string { return st.tenant }

// Name returns the stream's name within its tenant.
func (st *Stream) Name() string { return st.name }

// Manager owns every ingest stream under one root directory.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*Stream // key: tenant + "/" + name
	tenants map[string]*int64  // unsealed raw-tail bytes per tenant
	closed  bool

	cache *archCache // resident sealed archives, bounded by MaxSealedBytes

	stop    chan struct{}
	done    chan struct{}
	sealNow chan struct{}
}

// ReplayStats summarizes what Open recovered from disk.
type ReplayStats struct {
	Streams     int // streams found on disk
	SealedSegs  int // already-sealed segments reopened
	RawSegs     int // WAL segments recovered into the raw tail
	RawLines    int // lines in those WAL segments
	OrphanWALs  int // WALs superseded by a completed seal, removed
	TempRemoved int // abandoned temp files removed
	// Quarantined counts sealed segments whose archives were unreadable
	// or corrupt at replay with no surviving WAL: the stream serves
	// without them (queries report the gap as damage) instead of
	// refusing to start.
	Quarantined int
	// WALFallbacks counts sealed segments whose archives were unreadable
	// but whose pre-seal WAL still existed (a crash between publish and
	// cleanup): the WAL was replayed instead, losing nothing.
	WALFallbacks int
}

// Open creates (or reopens) the ingest root and replays whatever a
// previous process left behind: sealed segments are reopened for query,
// WAL segments whose seal completed are deleted (the archive is the
// survivor — never both, so no duplicates), and remaining WAL segments
// are decoded back into the raw tail for query and eventual sealing. The
// background sealer starts immediately.
func Open(cfg Config) (*Manager, *ReplayStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("%w: empty ingest dir", ErrBadInput)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	m := &Manager{
		cfg:     cfg,
		streams: make(map[string]*Stream),
		tenants: make(map[string]*int64),
		cache:   newArchCache(cfg.MaxSealedBytes),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		sealNow: make(chan struct{}, 1),
	}
	stats, err := m.replay()
	if err != nil {
		return nil, nil, err
	}
	go m.sealer()
	return m, stats, nil
}

// replay scans <dir>/<tenant>/<stream>/ and rebuilds in-memory state.
func (m *Manager) replay() (*ReplayStats, error) {
	stats := &ReplayStats{}
	tenants, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, t := range tenants {
		if !t.IsDir() || !validName(t.Name()) {
			continue
		}
		streamDirs, err := os.ReadDir(filepath.Join(m.cfg.Dir, t.Name()))
		if err != nil {
			return nil, err
		}
		for _, s := range streamDirs {
			if !s.IsDir() || !validName(s.Name()) {
				continue
			}
			st, err := m.replayStream(t.Name(), s.Name(), stats)
			if err != nil {
				return nil, fmt.Errorf("ingest: replay %s/%s: %w", t.Name(), s.Name(), err)
			}
			m.streams[t.Name()+"/"+s.Name()] = st
			stats.Streams++
		}
	}
	return stats, nil
}

func (m *Manager) replayStream(tenant, name string, stats *ReplayStats) (*Stream, error) {
	dir := filepath.Join(m.cfg.Dir, tenant, name)
	st := &Stream{tenant: tenant, name: name, dir: dir, m: m}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	wals := map[uint64]bool{}
	sealed := map[uint64]bool{}
	for _, e := range entries {
		n := e.Name()
		switch {
		case strings.HasPrefix(n, ".tmp-"):
			// An AtomicWriteFileSync interrupted before its rename; the WAL
			// it was sealing survived, so the temp bytes are garbage.
			os.Remove(filepath.Join(dir, n))
			stats.TempRemoved++
		case parseSeq(n, "wal-", ".wal") != 0:
			wals[parseSeq(n, "wal-", ".wal")] = true
		case parseSeq(n, "seg-", ".lgrep") != 0:
			sealed[parseSeq(n, "seg-", ".lgrep")] = true
		}
	}
	seqs := make([]uint64, 0, len(wals)+len(sealed))
	for q := range wals {
		seqs = append(seqs, q)
	}
	for q := range sealed {
		if !wals[q] {
			seqs = append(seqs, q)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	ctx := context.Background()
	for _, q := range seqs {
		if sealed[q] {
			// Load to validate and count lines, through the loader queries
			// use: the blob policy (retries, breaker), re-fetched torn
			// reads, and the bounded resident cache, so replay memory
			// peaks at one segment plus the cache cap, not the whole
			// history. A segment the loader gives up on degrades instead
			// of refusing startup.
			sg := &segment{seq: q, sealed: true}
			a, size, err := m.load(ctx, tenant, name, sg)
			if errors.Is(err, archive.ErrOldFormat) {
				// Sealed by an older loggrepd in a retired format: neither
				// damage to degrade around nor a file to drop for its WAL.
				// Startup stops until `loggrep upgrade` rewrites it.
				return nil, fmt.Errorf("sealed segment %s: %w", segPath(dir, q), err)
			}
			if err != nil {
				if wals[q] {
					// A crash between the seal's publish and its WAL
					// cleanup left both copies, and the archive side is
					// the broken one: replay the WAL below and drop the
					// bad archive so the sealer rebuilds it.
					os.Remove(segPath(dir, q))
					stats.WALFallbacks++
					mSealFallbacks.Inc()
				} else {
					sg.quarantined = true
					st.segs = append(st.segs, sg)
					stats.Quarantined++
					mQuarantined.Inc()
					continue
				}
			} else {
				sg.numLines, sg.sealedBytes = a.NumLines(), size
				st.segs = append(st.segs, sg)
				stats.SealedSegs++
				if wals[q] {
					// The seal's rename published before the crash; the WAL
					// is the redundant copy. Removing it (again) is the
					// idempotent completion of the interrupted protocol.
					os.Remove(walPath(dir, q))
					stats.OrphanWALs++
				}
				continue
			}
		}
		data, err := m.cfg.Blobs.Get(ctx, walKey(tenant, name, q))
		if err != nil {
			// WAL bytes back acknowledged batches; serving without them
			// would silently drop data clients were told is durable.
			return nil, err
		}
		lines, bytes := decodeWAL(data)
		if len(lines) == 0 {
			// Empty or torn-before-first-record WAL: nothing was
			// acknowledged from it.
			os.Remove(walPath(dir, q))
			continue
		}
		// Replayed raw segments are closed (f == nil): appends go to a
		// fresh segment, and the sealer picks these up in order.
		st.segs = append(st.segs, &segment{
			seq: q, lines: lines, rawBytes: bytes, born: time.Now(),
		})
		m.tenantAdd(tenant, bytes)
		stats.RawSegs++
		stats.RawLines += len(lines)
		mReplayedSegments.Inc()
		mReplayedLines.Add(int64(len(lines)))
	}
	if len(seqs) > 0 {
		st.nextSeq = seqs[len(seqs)-1] + 1
	}
	return st, nil
}

// parseSeq extracts the sequence number from prefix+%08d+suffix names, 0
// if the name does not match.
func parseSeq(name, prefix, suffix string) uint64 {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var q uint64
	for i := 0; i < len(mid); i++ {
		if mid[i] < '0' || mid[i] > '9' {
			return 0
		}
		q = q*10 + uint64(mid[i]-'0')
	}
	return q
}

// validName constrains tenant and stream names to path-safe tokens.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			i > 0 && (c == '.' || c == '_' || c == '-')
		if !ok {
			return false
		}
	}
	return true
}

// tenantAdd adjusts a tenant's unsealed-byte account by delta.
func (m *Manager) tenantAdd(tenant string, delta int64) {
	m.mu.Lock()
	p := m.tenants[tenant]
	if p == nil {
		p = new(int64)
		m.tenants[tenant] = p
	}
	*p += delta
	m.mu.Unlock()
}

// tenantReserve atomically charges delta against the tenant's budget,
// refusing when it would exceed the bound.
func (m *Manager) tenantReserve(tenant string, delta int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.tenants[tenant]
	if p == nil {
		p = new(int64)
		m.tenants[tenant] = p
	}
	if *p+delta > m.cfg.MaxTenantBytes {
		return false
	}
	*p += delta
	return true
}

// TenantUsage returns a tenant's unsealed raw-tail bytes and the bound.
func (m *Manager) TenantUsage(tenant string) (used, limit int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.tenants[tenant]; p != nil {
		used = *p
	}
	return used, m.cfg.MaxTenantBytes
}

// Lookup resolves "tenant/stream" (or "stream", meaning tenant
// "default") to an existing Stream, nil when absent.
func (m *Manager) Lookup(name string) *Stream {
	tenant, stream, ok := strings.Cut(name, "/")
	if !ok {
		tenant, stream = "default", name
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams[tenant+"/"+stream]
}

// stream returns (creating if needed) the tenant's named stream.
func (m *Manager) stream(tenant, name string) (*Stream, error) {
	if !validName(tenant) || !validName(name) {
		return nil, fmt.Errorf("%w: bad tenant/stream name %q/%q", ErrBadInput, tenant, name)
	}
	key := tenant + "/" + name
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if st := m.streams[key]; st != nil {
		return st, nil
	}
	dir := filepath.Join(m.cfg.Dir, tenant, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Pin the fresh tenant/stream directory entries; a WAL file whose
	// parent directories vanish in a host crash is lost with them.
	for _, d := range []string{filepath.Join(m.cfg.Dir, tenant), m.cfg.Dir} {
		if err := flightrec.SyncDir(d); err != nil {
			return nil, err
		}
	}
	st := &Stream{tenant: tenant, name: name, dir: dir, m: m}
	m.streams[key] = st
	return st, nil
}

// Append durably accepts one batch of lines for tenant/stream: the batch
// is framed into the active WAL segment, fsynced, and only then
// acknowledged. All-or-nothing: on any error no line of the batch was
// accepted. ErrBackpressure means the tenant's raw-tail budget is full —
// back off, let the sealer drain, retry.
func (m *Manager) Append(tenant, stream string, lines []string) error {
	return m.AppendContext(context.Background(), tenant, stream, lines)
}

// AppendContext is Append carrying the request context: when ctx holds a
// trace identity (obsv.ContextWithIDs), the append-latency histogram's
// exemplar records it, joining a slow fsync on /metrics to the ingest
// request's wide event and exported span. The context does not yet cancel
// the append itself — durability ordering owns that path.
func (m *Manager) AppendContext(ctx context.Context, tenant, stream string, lines []string) error {
	if len(lines) == 0 {
		return nil
	}
	var add int64
	for _, l := range lines {
		if len(l) > MaxLineBytes {
			return fmt.Errorf("%w: line of %d bytes exceeds %d", ErrBadInput, len(l), MaxLineBytes)
		}
		if strings.IndexByte(l, '\n') >= 0 {
			return fmt.Errorf("%w: line contains embedded newline", ErrBadInput)
		}
		add += int64(len(l)) + 1
	}
	st, err := m.stream(tenant, stream)
	if err != nil {
		return err
	}
	if !m.tenantReserve(tenant, add) {
		mRejected.Inc()
		return ErrBackpressure
	}
	t0 := time.Now()
	if err := st.append(lines, add); err != nil {
		m.tenantAdd(tenant, -add)
		return err
	}
	mBatches.Inc()
	mLines.Add(int64(len(lines)))
	mBytes.Add(add)
	hBatchNS.ObserveExemplar(time.Since(t0).Nanoseconds(), obsv.TraceIDFrom(ctx))
	return nil
}

// append writes the batch into the stream's active segment. The caller
// holds the tenant reservation.
func (st *Stream) append(lines []string, add int64) error {
	payload := make([]byte, 0, add)
	for _, l := range lines {
		payload = append(payload, l...)
		payload = append(payload, '\n')
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.lastErr != nil {
		return st.lastErr
	}
	sg, err := st.activeLocked()
	if err != nil {
		return err
	}
	rec := encodeWALRecord(payload)
	if _, err := sg.f.Write(rec); err != nil {
		return st.walFailLocked(sg,
			fmt.Errorf("ingest: WAL write %s/%s: %w", st.tenant, st.name, err))
	}
	t0 := time.Now()
	err = sg.f.Sync()
	if err == nil && st.m.cfg.walSyncHook != nil {
		err = st.m.cfg.walSyncHook()
	}
	if err != nil {
		return st.walFailLocked(sg,
			fmt.Errorf("ingest: WAL fsync %s/%s: %w", st.tenant, st.name, err))
	}
	mFsyncs.Inc()
	hFsyncNS.Observe(time.Since(t0).Nanoseconds())
	sg.walOff += int64(len(rec))
	sg.lines = append(sg.lines, lines...)
	sg.rawBytes += add
	if sg.rawBytes >= st.m.cfg.SealBytes {
		st.rollLocked()
		st.m.kickSealer()
	}
	return nil
}

// walFailLocked handles a WAL write or fsync failure in the active
// segment. The batch is NACKed either way; the point is keeping the NACK
// honest across a restart: the failed record is rolled back — the file
// truncated to the last acknowledged offset, the truncation fsynced, and
// the segment closed so a fresh WAL takes future appends — so replay
// cannot resurrect lines the client was told were refused (and will
// therefore resend). Only if the rollback itself fails is the durable
// state genuinely unknown; then the stream latches the error and refuses
// appends, and a restart's replay may resurface the NACKed batch —
// at-least-once, as documented in INGEST.md. The previously acknowledged
// prefix is unaffected in both cases: each of its records was fsynced
// before its ack. Caller holds st.mu.
func (st *Stream) walFailLocked(sg *segment, cause error) error {
	if terr := sg.f.Truncate(sg.walOff); terr == nil {
		if serr := sg.f.Sync(); serr == nil {
			st.rollLocked()
			mWALRollbacks.Inc()
			return cause
		}
	}
	st.lastErr = cause
	return cause
}

// activeLocked returns the active (open-file) segment, creating one if
// the stream has none. Caller holds st.mu.
func (st *Stream) activeLocked() (*segment, error) {
	if n := len(st.segs); n > 0 {
		if sg := st.segs[n-1]; sg.f != nil {
			return sg, nil
		}
	}
	if st.nextSeq == 0 {
		st.nextSeq = 1
	}
	seq := st.nextSeq
	path := walPath(st.dir, seq)
	f, err := createWAL(path)
	if err != nil {
		return nil, err
	}
	// The file's own fsyncs (one per batch) do not pin its directory
	// entry; without this a host crash could drop the whole WAL file,
	// acknowledged records included.
	if err := flightrec.SyncDir(st.dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	st.nextSeq++
	sg := &segment{seq: seq, f: f, walOff: int64(len(walMagic)), born: time.Now()}
	st.segs = append(st.segs, sg)
	return sg, nil
}

// rollLocked closes the active segment so the sealer may take it. Caller
// holds st.mu.
func (st *Stream) rollLocked() {
	if n := len(st.segs); n > 0 && st.segs[n-1].f != nil {
		sg := st.segs[n-1]
		sg.f.Close()
		sg.f = nil
	}
}

// NumLines returns the stream's total line count (sealed + raw tail).
func (st *Stream) NumLines() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, sg := range st.segs {
		n += sg.lineCount()
	}
	return n
}

// Info describes one stream for /v1/sources and diagnostics.
type Info struct {
	Tenant      string `json:"tenant"`
	Stream      string `json:"stream"`
	Lines       int    `json:"lines"`
	SealedSegs  int    `json:"sealed_segments"`
	RawSegs     int    `json:"raw_segments"`
	RawBytes    int64  `json:"raw_bytes"`
	SealedSize  int64  `json:"sealed_compressed_bytes"`
	Quarantined int    `json:"quarantined_segments,omitempty"`
}

// Snapshot lists every stream, tenant/stream sorted.
func (m *Manager) Snapshot() []Info {
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(streams))
	for _, st := range streams {
		st.mu.Lock()
		info := Info{Tenant: st.tenant, Stream: st.name}
		for _, sg := range st.segs {
			info.Lines += sg.lineCount()
			if sg.quarantined {
				info.Quarantined++
			} else if sg.sealed {
				info.SealedSegs++
				info.SealedSize += sg.sealedBytes
			} else {
				info.RawSegs++
				info.RawBytes += sg.rawBytes
			}
		}
		st.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// Close stops the sealer and closes every active WAL file (fsynced
// first). It does NOT seal the raw tail — WAL segments are already
// durable and the next Open replays them — so shutdown stays fast.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	var first error
	for _, st := range m.snapshotStreams() {
		st.mu.Lock()
		if n := len(st.segs); n > 0 && st.segs[n-1].f != nil {
			sg := st.segs[n-1]
			if err := sg.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := sg.f.Close(); err != nil && first == nil {
				first = err
			}
			sg.f = nil
		}
		st.mu.Unlock()
	}
	return first
}

// abandon simulates a process crash for tests: the sealer stops and file
// handles are dropped without any flush. Acknowledged data is already on
// disk (Append fsyncs before acking); nothing else may be written.
func (m *Manager) abandon() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	for _, st := range m.snapshotStreams() {
		st.mu.Lock()
		if n := len(st.segs); n > 0 && st.segs[n-1].f != nil {
			st.segs[n-1].f.Close() // release the fd; no sync
			st.segs[n-1].f = nil
		}
		st.mu.Unlock()
	}
}

func (m *Manager) snapshotStreams() []*Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		out = append(out, st)
	}
	return out
}
