package ingest

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"loggrep/internal/archive"
)

// archCache bounds how many sealed-archive bytes stay resident in memory
// across all of a Manager's streams. Sealing and replay admit archives;
// queries look them up and transparently reload evicted ones from disk.
// Without the bound a long-running ingest server's memory would grow with
// total ingested volume (every sealed segment held forever); with it,
// resident sealed bytes stay under Config.MaxSealedBytes and cold
// segments cost one file read on their next query.
//
// Eviction drops only the cache's reference: a query already holding the
// archive keeps it alive until it finishes, so there is no use-after-free
// hazard, just garbage collection.
type archCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   *list.List                 // front = most recently used
	ents  map[*segment]*list.Element // element value: *cacheEnt
}

type cacheEnt struct {
	sg   *segment
	arch *archive.Archive
	size int64
}

func newArchCache(max int64) *archCache {
	return &archCache{max: max, lru: list.New(), ents: map[*segment]*list.Element{}}
}

// admit inserts a freshly opened archive and evicts least-recently-used
// entries past the byte bound. The entry being admitted is never evicted
// by its own admission, so a single segment larger than the whole bound
// still serves the query that loaded it.
func (c *archCache) admit(sg *segment, a *archive.Archive, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ents[sg]; ok {
		// A racing loader got here first; keep the incumbent.
		c.lru.MoveToFront(e)
		return
	}
	e := c.lru.PushFront(&cacheEnt{sg: sg, arch: a, size: size})
	c.ents[sg] = e
	c.bytes += size
	for c.bytes > c.max && c.lru.Len() > 1 {
		old := c.lru.Back()
		ent := old.Value.(*cacheEnt)
		c.lru.Remove(old)
		delete(c.ents, ent.sg)
		c.bytes -= ent.size
		mSealedEvictions.Inc()
	}
}

// get returns the segment's resident archive, nil when evicted or never
// admitted. A hit refreshes recency.
func (c *archCache) get(sg *segment) *archive.Archive {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ents[sg]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*cacheEnt).arch
	}
	return nil
}

// resident reports the cache's current byte footprint (tests,
// diagnostics).
func (c *archCache) resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// reloadAttempts bounds how many times archive re-fetches bytes that
// came back readable but failed archive validation (a torn read): the
// blob policy retries I/O errors internally, but a torn read succeeds at
// the I/O layer and only the checksums catch it, so the re-fetch loop
// lives here.
const reloadAttempts = 3

// archive returns sg's sealed archive from the resident cache, loading it
// again after an eviction. sg must be sealed and not quarantined.
func (st *Stream) archive(ctx context.Context, sg *segment) (*archive.Archive, error) {
	if a := st.m.cache.get(sg); a != nil {
		mSealedCacheHits.Inc()
		return a, nil
	}
	mSealedCacheMisses.Inc()
	a, _, err := st.m.load(ctx, st.tenant, st.name, sg)
	return a, err
}

// load is the one loader of a sealed segment's archive, for replay and
// for queries after an eviction: it fetches the archive through the blob
// store and admits a healthy one to the resident cache, returning it with
// its size. Concurrent loaders may both read the blob; admit keeps one.
// Bytes that are readable but fail validation are re-fetched up to
// reloadAttempts times. Failures are not latched — the next call tries
// again — and classify through blobstore.Classify for the caller's
// degrade decision.
func (m *Manager) load(ctx context.Context, tenant, stream string, sg *segment) (*archive.Archive, int64, error) {
	key := segKey(tenant, stream, sg.seq)
	var lastErr error
	for i := 0; i < reloadAttempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		data, err := m.cfg.Blobs.Get(ctx, key)
		if err != nil {
			return nil, 0, err // the policy already retried what was retryable
		}
		size := int64(len(data))
		a, err := archive.Open(data)
		if errors.Is(err, archive.ErrOldFormat) {
			// A segment an older loggrepd sealed: intact, and no re-fetch
			// changes its format.
			return nil, 0, err
		}
		if err != nil {
			// Readable bytes, broken archive: a torn read or real on-disk
			// corruption. Re-fetch — a torn read heals, corruption repeats.
			mSealedReloadCorrupt.Inc()
			lastErr = fmt.Errorf("ingest: sealed segment %d failed validation: %w", sg.seq, err)
			continue
		}
		if len(a.Damage()) > 0 {
			// The archive frame parsed but some blocks failed validation —
			// the same torn-read shape one layer down. Re-fetch; on the
			// last attempt serve the survivors (readable blocks answer,
			// damaged ones are reported) but do NOT cache the damaged
			// copy: if the damage was a read artifact, the next load's
			// fresh fetch heals it.
			mSealedReloadCorrupt.Inc()
			if i < reloadAttempts-1 {
				continue
			}
			return a, size, nil
		}
		m.cache.admit(sg, a, size)
		return a, size, nil
	}
	return nil, 0, lastErr
}
