package tsdb

// qcache.go — the query result cache in front of Execute.
//
// Every dashboard tick re-executes the same query shape over a window that
// moved by a bucket or two, so at fleet scale the read path re-aggregates
// almost entirely unchanged history on every refresh. The cache closes that
// gap: results of tier-served, bucket-aligned queries are keyed on the
// canonicalized shape (measurement, field, where, group_by, aggs, window,
// serving tier) — NOT on the time range — and a hit whose range advanced
// re-aggregates only the buckets past the cached high-water mark, re-opening
// the last possibly-partial bucket, instead of rescanning the range.
//
// Correctness model (the cache must stay bit-exact with an uncached
// Execute):
//
//   - Frozen region. An entry stores rendered buckets only up to
//     frozenEnd = floor((maxT−slack)/window)·window: everything within
//     slack of the newest point is considered still open and is always
//     re-aggregated. The slack absorbs the pipeline's routine mild
//     reordering (batched writers advance maxT before applying points).
//   - Backfill generation. A write older than maxT−slack lands (or could
//     land) inside somebody's frozen region, so the write path bumps a
//     global generation counter *after* applying the point (under the
//     stripe lock); entries remember the generation loaded *before* their
//     scan and a mismatch at lookup time discards them. Between the two
//     rules, data under a served frozen bucket provably has not changed.
//   - Group presence. Which groups appear in a result depends on shard
//     overlap and field existence over the whole range, which can change
//     without any point landing in the frozen region (a shard straddling
//     End gaining the field). Every serve therefore decides presence over
//     the full range from the shape's kept walk (below), one range check
//     per resolved chunk, and only the per-bucket aggregation is reused
//     from the frozen buckets.
//   - Kept walk. An entry also keeps what walkTier resolved for its shape
//     (rollup.go): per stripe, every tier chunk of its matched series that
//     carries the field, with its group and row column, in walk order. A
//     serve extends a stripe's list with the series interned since and
//     merges its tail from the list without touching a series ident; a
//     stripe whose layoutGen moved (a chunk inserted into a list that had
//     one, a field added to a chunk, a tier retention sweep) is walked
//     again. The extension stops at the first matched series with no tier
//     chunk yet, since its first chunk moves no layoutGen. So the list is
//     the walk an uncached Execute makes, and the merge over it the same
//     merge calls in the same order. The walk depends on the shape alone:
//     it survives a backfill that drops the entry's frozen buckets. It is
//     charged against the budget beside the buckets and kept only when
//     both fit.
//   - Retention. Tier sweeps drop whole shard slots of tier chunks behind
//     maxT−tier.Retention; a query that reaches below that horizon is
//     refused by the cache (a miss, served uncached) because its frozen
//     buckets may describe since-dropped data. At or above the horizon a
//     surviving shard still holds every bucket, so frozen state is safe.
//
// Lock/ownership contract: queryCache.mu is a leaf lock guarding only the
// table, LRU list and byte ledger. It is never held across a stripe scan —
// lookups copy out the entry pointer (entries are immutable once published,
// their kept walk aside; refreshes install a fresh entry) and the merge
// runs lock-free before re-acquiring mu to publish. A kept walk belongs to
// the one query that set its busy flag, a try-lock nobody waits on: a query
// that finds it set resolves a walk of its own. The backfill generation and
// the stat counters are atomics. Registered in the repo lockorder spec
// (internal/lint).
//
// Entries store frozen buckets fully rendered — []Bucket with the final
// Aggs maps — and a serve copies the bucket structs while sharing the map
// values, so a hit costs a memmove per group instead of a map allocation
// per bucket. The shared maps are immutable by the same argument as the
// entries themselves; correspondingly, Execute results served through the
// cache must be treated as read-only by callers (every in-repo consumer
// only marshals them).

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// qcacheSlack is how far (ns) behind the newest point the frozen high-water
// mark trails: buckets within the slack are always re-aggregated, and only
// writes older than the slack count as cache-invalidating backfills. 30s
// covers the sink's batch-induced reordering by orders of magnitude while
// keeping the per-refresh tail a few buckets wide at dashboard widths.
const qcacheSlack = 30_000_000_000

// Rough per-entry / per-group / per-bucket bookkeeping overhead charged
// against the byte budget on top of the measured key/group payloads. The
// bucket charge covers the Bucket struct plus its Aggs map header; each agg
// entry adds qcacheAggOverhead more. Refresh chains share Aggs maps between
// successive entries, so this over-counts shared state — deliberately
// conservative for a budget.
const (
	qcacheEntryOverhead  = 160
	qcacheGroupOverhead  = 64
	qcacheBucketOverhead = 72
	qcacheAggOverhead    = 16
)

// CacheStats is the query cache counter snapshot reported in /api/stats.
type CacheStats struct {
	// Enabled reports whether Options.QueryCache configured a cache at all.
	Enabled bool `json:"enabled"`
	// Hits counts queries served (at least partially) from a cached entry;
	// PartialRefreshes counts the subset that additionally re-aggregated a
	// tail past the entry's high-water mark.
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	PartialRefreshes uint64 `json:"partial_refreshes"`
	// Evictions counts entries removed by byte-budget pressure (LRU order).
	Evictions uint64 `json:"evictions"`
	// Bytes is the frozen buckets' accounted footprint and WalkBytes the
	// kept walks'; together they stay ≤ Options.QueryCache.
	Bytes     int64 `json:"bytes"`
	WalkBytes int64 `json:"walk_bytes"`
	// Rewalks counts the stripe walks a cached query resolved again from
	// scratch instead of extending its entry's kept walk: the stripe's
	// tier layout changed (a series' next chunk, a field new to a chunk,
	// a retention sweep), or the range starts before what the walk lists.
	Rewalks uint64 `json:"rewalks"`
}

// queryCache is the shape-keyed result cache. See the file comment for the
// correctness model.
type queryCache struct {
	budget int64
	// slack mirrors qcacheSlack; a plain field so tests can pin the frozen
	// boundary deterministically (set before any writes or queries).
	slack int64

	// gen is the backfill generation: bumped by the write path after
	// applying any point older than maxT−slack. Entries cache the value
	// read before their scan; a mismatch at lookup invalidates them.
	gen atomic.Uint64

	hits    atomic.Uint64
	misses  atomic.Uint64
	partial atomic.Uint64
	evicted atomic.Uint64
	rewalks atomic.Uint64

	mu        sync.Mutex // leaf: never held across a stripe scan
	table     map[string]*qcacheEntry
	head      *qcacheEntry // LRU: head = most recently used
	tail      *qcacheEntry
	bytes     int64 // entries' frozen buckets
	walkBytes int64 // entries' kept walks
}

// qcacheEntry is one cached shape: rendered frozen buckets for
// [start, frozenEnd) per group. Entries are immutable once published — a
// refresh installs a replacement — so lookups may use them lock-free.
type qcacheEntry struct {
	key       string
	start     int64 // first frozen bucket start (window-aligned)
	frozenEnd int64 // exclusive frozen high-water mark (window-aligned)
	window    int64
	gen       uint64
	groups    []cachedGroup // sorted by group
	size      int64         // the frozen buckets' charge
	// walk is the shape's resolved tier walk, nil when it does not fit
	// the budget beside the buckets, and walkSize its charge; both are
	// guarded by queryCache.mu. Unlike the rest of the entry the walk
	// itself changes after publication, by the one query that holds its
	// busy flag, which then re-prices it.
	walk     *tierWalk
	walkSize int64

	prev, next *qcacheEntry
}

// cachedGroup holds one group's frozen buckets fully rendered, with
// absolute bucket starts and the exact float bits the original aggregation
// produced. The buckets (and their Aggs maps) are immutable: serves copy
// the structs and share the maps.
type cachedGroup struct {
	group   string
	buckets []Bucket
}

func newQueryCache(budget int64) *queryCache {
	return &queryCache{
		budget: budget,
		slack:  qcacheSlack,
		table:  make(map[string]*qcacheEntry),
	}
}

// noteBackfill is the write-path invalidation hook: called after a point is
// applied (still under the stripe lock) so that a reader whose scan missed
// the point is guaranteed to observe the bump before trusting a cached
// entry built from the pre-write state.
//
//ruru:noalloc
func (db *DB) noteBackfill(t, maxT int64) {
	if qc := db.qcache; qc != nil && t < maxT-qc.slack {
		qc.gen.Add(1)
	}
}

// CacheStats snapshots the query cache counters (zero value when the cache
// is disabled).
func (db *DB) CacheStats() CacheStats {
	qc := db.qcache
	if qc == nil {
		return CacheStats{}
	}
	qc.mu.Lock()
	bytes, walkBytes := qc.bytes, qc.walkBytes
	qc.mu.Unlock()
	return CacheStats{
		Enabled:          true,
		Hits:             qc.hits.Load(),
		Misses:           qc.misses.Load(),
		PartialRefreshes: qc.partial.Load(),
		Evictions:        qc.evicted.Load(),
		Bytes:            bytes,
		WalkBytes:        walkBytes,
		Rewalks:          qc.rewalks.Load(),
	}
}

// canonicalAggs returns the sorted, deduplicated agg set. The result map of
// a bucket depends only on the set (duplicates and order collapse in the
// map), so the canonical form can both key the cache and drive rendering.
func canonicalAggs(in []AggKind) []AggKind {
	out := append([]AggKind(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, a := range out {
		if i == 0 || a != out[n-1] {
			out[n] = a
			n++
		}
	}
	return out[:n]
}

// cacheKey builds the canonical shape key: measurement, field, group_by,
// sorted where filters, canonical aggs, window and serving tier width —
// everything that decides the result besides the time range. Components are
// length-prefixed so the encoding is unambiguous.
func cacheKey(q *Query, aggs []AggKind, window, tierWidth int64) string {
	b := make([]byte, 0, 96)
	app := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	app(q.Measurement)
	app(q.Field)
	app(q.GroupBy)
	where := append([]Tag(nil), q.Where...)
	sort.Slice(where, func(i, j int) bool {
		if where[i].Key != where[j].Key {
			return where[i].Key < where[j].Key
		}
		return where[i].Value < where[j].Value
	})
	b = binary.AppendUvarint(b, uint64(len(where)))
	for _, t := range where {
		app(t.Key)
		app(t.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(aggs)))
	for _, a := range aggs {
		app(string(a))
	}
	b = binary.AppendVarint(b, window)
	b = binary.AppendVarint(b, tierWidth)
	return string(b)
}

// executeCached serves a tier-planned query through the cache. ok=false
// means the shape is uncacheable (no explicit window, or bounds off bucket
// boundaries) or a retention horizon forbids trusting frozen state — the
// caller falls back to the plain tier executor. With ok=true, err is the
// tier scan's refusal of an answer over maxGroups groups.
func (db *DB) executeCached(q *Query, window int64, nBuckets, maxGroups, ti int) ([]SeriesResult, bool, error) {
	qc := db.qcache
	if q.Window <= 0 ||
		floorDiv(q.Start, window)*window != q.Start ||
		floorDiv(q.End, window)*window != q.End {
		return nil, false, nil
	}
	tier := &db.opts.Rollups[ti]
	maxT := db.maxT.Load()
	if tier.Retention > 0 && q.Start < maxT-tier.Retention {
		// Below the tier's retention horizon a sweep may already have
		// dropped shards the frozen buckets describe; neither serving nor
		// refreshing cached state is sound there.
		qc.misses.Add(1)
		return nil, false, nil
	}
	aggs := canonicalAggs(q.Aggs)
	key := cacheKey(q, aggs, window, tier.Width)
	// Load the generation before any stripe is scanned: a backfill applied
	// after this load bumps gen after its apply, so an entry stored with
	// this value can never hide that write from a later lookup.
	gen := qc.gen.Load()

	var frozen, walkOf *qcacheEntry
	var walk *tierWalk
	tailStart := q.Start
	qc.mu.Lock()
	if e := qc.table[key]; e != nil {
		if e.gen == gen && e.window == window && q.Start >= e.start && q.Start < e.frozenEnd {
			frozen = e
			tailStart = e.frozenEnd
			if tailStart > q.End {
				tailStart = q.End
			}
			qc.touchLocked(e)
		}
		// The walk depends on the shape alone, so it outlives frozen
		// buckets a backfill or a range change made useless.
		if e.walk != nil && e.walk.busy.CompareAndSwap(false, true) {
			walk, walkOf = e.walk, e
		}
	}
	qc.mu.Unlock()
	if walk == nil {
		walk = &tierWalk{stripes: make([]stripeWalk, len(db.stripes)), index: map[string]int32{}}
	}

	nFrozen := int((tailStart - q.Start) / window)
	nTail := nBuckets - nFrozen
	groups, rewalks, err := db.walkTier(q, window, ti, tailStart, nTail, maxGroups, walk)
	walkBytes := walk.bytes()
	walk.busy.Store(false)
	qc.rewalks.Add(rewalks)
	if err != nil {
		return nil, true, err
	}

	if frozen != nil {
		qc.hits.Add(1)
		if nTail > 0 {
			qc.partial.Add(1)
		}
	} else {
		qc.misses.Add(1)
	}

	out := make([]SeriesResult, 0, len(groups))
	var zero rollAcc
	var zeroAggs map[AggKind]float64 // shared empty-bucket map, built lazily
	for _, gt := range groups {
		g, accs := gt.name, gt.accs
		res := SeriesResult{Group: g, Tier: tier.Width, Buckets: make([]Bucket, nBuckets)}
		var fg *cachedGroup
		if frozen != nil {
			fg = frozen.groupFor(g)
		}
		if fg != nil {
			// Stored buckets carry absolute starts, so the frozen prefix is
			// a straight struct copy; the Aggs maps are shared, immutable.
			off := int((q.Start - frozen.start) / window)
			copy(res.Buckets[:nFrozen], fg.buckets[off:off+nFrozen])
		} else {
			// Present group with no frozen state: no data existed in the
			// frozen region when the entry was built (anything newer would
			// have bumped gen), so the buckets are empty. One shared map
			// serves them all.
			if nFrozen > 0 && zeroAggs == nil {
				zeroAggs = zero.toBucket(0, aggs).Aggs
			}
			for i := 0; i < nFrozen; i++ {
				res.Buckets[i] = Bucket{Start: q.Start + int64(i)*window, Aggs: zeroAggs}
			}
		}
		for i := 0; i < nTail; i++ {
			a := &zero
			if accs != nil {
				a = &accs[i]
			}
			res.Buckets[nFrozen+i] = a.toBucket(tailStart+int64(i)*window, aggs)
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })

	// Publish the refreshed frozen prefix. maxT was loaded before the scan,
	// so newFe is conservative: any later write below it is a backfill by
	// construction and invalidates the entry through gen.
	newFe := floorDiv(maxT-qc.slack, window) * window
	if newFe > q.End {
		newFe = q.End
	}
	if newFe < q.Start {
		newFe = q.Start
	}
	nKeep := int((newFe - q.Start) / window)
	advanced := frozen == nil || newFe > frozen.frozenEnd
	trimmed := frozen != nil && newFe == frozen.frozenEnd && q.Start > frozen.start
	if nKeep > 0 && (advanced || trimmed) {
		e := &qcacheEntry{key: key, start: q.Start, frozenEnd: newFe, window: window, gen: gen}
		e.groups = make([]cachedGroup, 0, len(out))
		for _, res := range out {
			e.groups = append(e.groups, cachedGroup{
				group:   res.Group,
				buckets: append([]Bucket(nil), res.Buckets[:nKeep]...),
			})
		}
		e.size = e.sizeBytes(len(aggs))
		if e.size+walkBytes <= qc.budget {
			e.walk, e.walkSize = walk, walkBytes
		}
		qc.insert(e)
	} else if walkOf != nil {
		qc.recharge(walkOf, walk, walkBytes)
	}
	return out, true, nil
}

// groupFor returns the entry's frozen state for a group, or nil.
func (e *qcacheEntry) groupFor(g string) *cachedGroup {
	i := sort.Search(len(e.groups), func(i int) bool { return e.groups[i].group >= g })
	if i < len(e.groups) && e.groups[i].group == g {
		return &e.groups[i]
	}
	return nil
}

func (e *qcacheEntry) sizeBytes(nAggs int) int64 {
	sz := int64(len(e.key)) + qcacheEntryOverhead
	perBucket := int64(qcacheBucketOverhead + nAggs*qcacheAggOverhead)
	for i := range e.groups {
		g := &e.groups[i]
		sz += int64(len(g.group)) + qcacheGroupOverhead +
			int64(len(g.buckets))*perBucket
	}
	return sz
}

// insert publishes e, replacing any previous entry for the key, and evicts
// from the LRU tail until the byte budget holds (possibly evicting e itself
// when a single entry exceeds the whole budget).
func (qc *queryCache) insert(e *qcacheEntry) {
	qc.mu.Lock()
	if old := qc.table[e.key]; old != nil {
		qc.unlinkLocked(old) // replacement, not an eviction
	}
	qc.table[e.key] = e
	qc.pushFrontLocked(e)
	qc.bytes += e.size
	qc.walkBytes += e.walkSize
	qc.evictLocked()
	qc.mu.Unlock()
}

// recharge re-prices walk, which a serve grew in place, if it is still
// e's. A walk that no longer fits beside e's buckets is dropped from e.
func (qc *queryCache) recharge(e *qcacheEntry, walk *tierWalk, walkBytes int64) {
	qc.mu.Lock()
	if qc.table[e.key] == e && e.walk == walk {
		qc.walkBytes += walkBytes - e.walkSize
		e.walkSize = walkBytes
		if e.size+walkBytes > qc.budget {
			qc.walkBytes -= walkBytes
			e.walk, e.walkSize = nil, 0
		}
		qc.evictLocked()
	}
	qc.mu.Unlock()
}

// evictLocked evicts from the LRU tail until the byte budget holds.
// Caller holds mu.
func (qc *queryCache) evictLocked() {
	for qc.bytes+qc.walkBytes > qc.budget && qc.tail != nil {
		victim := qc.tail
		qc.unlinkLocked(victim)
		delete(qc.table, victim.key)
		qc.evicted.Add(1)
	}
}

// touchLocked moves e to the LRU front. Caller holds mu.
func (qc *queryCache) touchLocked(e *qcacheEntry) {
	if qc.head == e {
		return
	}
	qc.popLocked(e)
	qc.pushFrontLocked(e)
}

// unlinkLocked removes e from the list, table bookkeeping aside, and debits
// its bytes. Caller holds mu and owns the table update.
func (qc *queryCache) unlinkLocked(e *qcacheEntry) {
	qc.popLocked(e)
	qc.bytes -= e.size
	qc.walkBytes -= e.walkSize
}

func (qc *queryCache) popLocked(e *qcacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		qc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		qc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (qc *queryCache) pushFrontLocked(e *qcacheEntry) {
	e.prev, e.next = nil, qc.head
	if qc.head != nil {
		qc.head.prev = e
	}
	qc.head = e
	if qc.tail == nil {
		qc.tail = e
	}
}
