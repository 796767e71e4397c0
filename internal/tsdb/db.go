package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/hashx"
)

// Options configures a DB.
type Options struct {
	// ShardDuration is the time width of one shard (default 1h of the
	// data's own clock).
	ShardDuration int64
	// Retention drops shards whose end is older than this much behind the
	// newest point (0 = keep everything).
	Retention int64
	// Stripes is the number of independently locked partitions the series
	// space is hashed across (default 8, rounded up to a power of two).
	// Concurrent writers contend only when they touch series in the same
	// stripe; Stripes = 1 restores the old single-global-lock behaviour.
	Stripes int
	// Rollups enables multi-resolution downsampling: every write
	// additionally feeds each listed tier's pre-aggregates, and Execute
	// serves aligned windowed queries from the coarsest usable tier (see
	// rollup.go). Nil disables rollups. Open sorts the tiers finest-first
	// and drops invalid (non-positive width) or duplicate-width entries.
	Rollups []RollupTier
	// Persist enables durable storage (write-ahead log + checkpointed
	// snapshots under Persist.Dir, restored on open — see persist.go).
	// Requires OpenDB: enabling persistence can fail with I/O errors that
	// the error-free Open cannot report. Nil keeps the DB in-memory.
	Persist *PersistOptions
	// QueryCache, when > 0, bounds a shape-keyed result cache in front of
	// Execute in bytes (LRU-evicted; see qcache.go). Repeated dashboard
	// queries whose window merely advanced re-aggregate only the buckets
	// past the cached high-water mark; results stay bit-exact with an
	// uncached Execute. Zero disables the cache.
	QueryCache int64
}

// DB is the time-series database. Safe for concurrent use. Writes to
// different series take different stripe locks, so concurrent writers (the
// pipeline's sink workers) do not serialize on one global mutex.
type DB struct {
	opts    Options
	stripes []*stripe
	mask    uint32

	maxT atomic.Int64 // newest point time seen (retention horizon anchor)
	// sweepRet is the smallest positive retention across raw storage and
	// the rollup tiers (0 when nothing expires): it decides how often
	// maybeSweepAll must run.
	sweepRet int64
	// sweptShard is the last horizon shard index for which every stripe
	// was purged: writes to one stripe must still retire expired chunks
	// in stripes that have gone idle.
	sweptShard atomic.Int64
	closed     atomic.Bool
	written    atomic.Uint64
	dropped    atomic.Uint64 // points dropped by retention at write time

	// qcache is the Execute result cache (nil unless Options.QueryCache).
	// The write paths notify it of backfills (points older than the frozen
	// slack) so served frozen buckets provably describe unchanged data.
	qcache *queryCache

	// Durability (nil / uncontended on in-memory databases). Writers hold
	// commitMu.RLock from their WAL append through their in-memory apply;
	// Checkpoint takes it exclusively for the instant of the WAL rotation
	// so the checkpoint cut is exact: state == every record below the
	// rotated-to segment. Lock order is commitMu, then stripe mu, then
	// dirMu.
	persist  *persister
	commitMu sync.RWMutex

	// Series directory: every series identity ever written, published
	// copy-on-write behind dir so queries match series and WriteBatchRef
	// resolves handles lock-free (see ref.go). byKey and the backing arrays
	// are guarded by dirMu; a write or Ref creating a brand-new shape interns
	// it under stripe mu → dirMu, which is why dirMu is last in the lock
	// order.
	dir       atomic.Pointer[seriesDir]
	dirMu     sync.Mutex
	byKey     map[string]*seriesIdent
	identsBuf []*seriesIdent
	refsBuf   []*refState

	// scratchPool recycles the per-call scratch WriteBatch and Ref stage
	// their points into, so they do not allocate per call.
	scratchPool sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// writeScratch is pooled per-call scratch for WriteBatch and Ref: the staged
// points' ref keys back to back in one arena and their field values back to
// back in vals — point i owns arena[offs[i]:offs[i+1]] and
// vals[voffs[i]:voffs[i+1]] — plus per-point stripe ids and, once resolved,
// the points as RefPoints for WriteBatchRef.
type writeScratch struct {
	arena []byte
	offs  []int
	vals  []float64
	voffs []int
	sids  []uint32
	rpts  []RefPoint
}

// reset empties the scratch for a new call, keeping its capacity.
func (sc *writeScratch) reset() {
	sc.arena, sc.vals, sc.sids = sc.arena[:0], sc.vals[:0], sc.sids[:0]
	sc.offs = append(sc.offs[:0], 0)
	sc.voffs = append(sc.voffs[:0], 0)
}

// stage validates p — before anything is logged or written, so a rejected
// point fails its whole call — sorts its tags in place, and appends its ref
// key (see appendRefKeyHead), stripe id and field values to the scratch.
// It is the one shape validation, Ref's included: no fields, duplicate
// field keys (a series column holds one value per point) and identifiers
// Snapshot could not write back are refused.
func (sc *writeScratch) stage(p *Point, mask uint32) error {
	if len(p.Fields) == 0 {
		return ErrNoFields
	}
	for i := range p.Fields {
		if !lineSafeField(p.Fields[i].Key) {
			return ErrBadRef
		}
		for j := i + 1; j < len(p.Fields); j++ {
			if p.Fields[i].Key == p.Fields[j].Key {
				return ErrBadRef
			}
		}
	}
	sortTags(p.Tags)
	var keyAt int
	sc.arena, keyAt = appendRefKeyHead(sc.arena, p.Name, p.Tags)
	if !lineSafe(p.Name, p.Tags, sc.arena[keyAt:]) {
		return ErrBadRef
	}
	sc.sids = append(sc.sids, hashx.FNV1a32Bytes(sc.arena[keyAt:])&mask)
	for _, f := range p.Fields {
		sc.arena = appendString(sc.arena, f.Key)
		sc.vals = append(sc.vals, f.Value)
	}
	sc.offs = append(sc.offs, len(sc.arena))
	sc.voffs = append(sc.voffs, len(sc.vals))
	return nil
}

// stripe is one lock-striped partition: the series that hash into it, each
// owning its raw chunks and its rollup-tier chunks (ref.go). Everything a
// series stores lives in one stripe and is only touched under mu.
type stripe struct {
	mu sync.RWMutex
	// idents lists the stripe's series in interned order: the walk order of
	// retention, dumps and TagValues.
	idents []*seriesIdent
	// starts holds, per level — 0 is raw storage, 1+ti is rollup tier ti —
	// the sorted starts of the shard slots in which some series of the stripe
	// has a chunk. Slots expire oldest first, so starts[l][0] alone tells a
	// write whether level l has anything to retire.
	starts [][]int64
	// refs interns every (series, ordered field set) shape whose series
	// hashes into this stripe, keyed by its ref key. Living under mu lets
	// WriteBatch resolve a known shape to its refState without touching the
	// global dirMu.
	refs map[string]*refState
	// layoutGen counts changes to what the stripe's series already hold in
	// their rollup tiers that a walk resolved earlier cannot see: a chunk
	// inserted into a tier list that has held one before, a field added to a
	// chunk a reader may have passed by, a retention sweep dropping tier
	// chunks. A query cache entry keeps its resolved walk per stripe
	// (qcache.go) and re-walks a stripe whose layoutGen moved.
	layoutGen uint64
}

// noteSlot records that some series of st now has a chunk in level lvl's
// shard slot starting at start. Caller holds st.mu.
func (st *stripe) noteSlot(lvl int, start int64) {
	if i, ok := slices.BinarySearch(st.starts[lvl], start); !ok {
		st.starts[lvl] = slices.Insert(st.starts[lvl], i, start)
	}
}

// series is one series' raw chunk: its points within one shard slot
// [start, end), as a column store. Fields are positional (fkeys[i] names
// cols[i]): the working field set of a series is a handful of keys, so a
// linear scan beats a map hop, gives the ref path stable column indices to
// cache, and makes snapshot iteration deterministic.
type series struct {
	start, end int64
	times      []int64
	fkeys      []string
	cols       [][]float64
}

// findCol returns the index of the named column, or -1.
func (sr *series) findCol(key string) int {
	for i, k := range sr.fkeys {
		if k == key {
			return i
		}
	}
	return -1
}

// addCol appends a new column padded with NaN for every existing row and
// returns its index. Caller holds the owning stripe's lock.
func (sr *series) addCol(key string) int {
	col := make([]float64, len(sr.times))
	for i := range col {
		col[i] = nan
	}
	sr.fkeys = append(sr.fkeys, key)
	sr.cols = append(sr.cols, col)
	return len(sr.cols) - 1
}

// Open creates an empty in-memory DB. It panics if opts.Persist is set:
// persistence performs I/O that can fail, which only OpenDB can report.
func Open(opts Options) *DB {
	if opts.Persist != nil {
		panic("tsdb: Options.Persist requires OpenDB")
	}
	db, _ := OpenDB(opts)
	return db
}

// OpenDB creates a DB. With opts.Persist set it owns the data directory
// (refusing a second opener via the lockfile), restores the newest
// checkpoint, replays the WAL tail through the normal write path —
// rebuilding rollup tiers and re-applying retention — and then logs every
// subsequent Write/WriteBatch ahead of applying it. A torn final WAL
// record (crash mid-append) is tolerated and reported in PersistStats;
// corruption anywhere earlier fails the open. Without Persist it is
// identical to Open.
func OpenDB(opts Options) (*DB, error) {
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = int64(3600) * 1e9
	}
	if opts.Stripes <= 0 {
		opts.Stripes = 8
	}
	opts.Rollups = normalizeRollups(opts.Rollups)
	n := 1
	for n < opts.Stripes {
		n <<= 1
	}
	db := &DB{opts: opts, stripes: make([]*stripe, n), mask: uint32(n - 1)}
	if opts.Retention > 0 {
		db.sweepRet = opts.Retention
	}
	for _, t := range opts.Rollups {
		if t.Retention > 0 && (db.sweepRet == 0 || t.Retention < db.sweepRet) {
			db.sweepRet = t.Retention
		}
	}
	db.sweptShard.Store(math.MinInt64)
	if opts.QueryCache > 0 {
		db.qcache = newQueryCache(opts.QueryCache)
	}
	db.byKey = make(map[string]*seriesIdent)
	db.dir.Store(&seriesDir{})
	db.scratchPool.New = func() any { return &writeScratch{} }
	for i := range db.stripes {
		db.stripes[i] = &stripe{
			starts: make([][]int64, 1+len(opts.Rollups)),
			refs:   make(map[string]*refState),
		}
	}
	if opts.Persist != nil {
		// openPersist restores + replays with db.persist still nil (so
		// recovery writes do not re-log themselves), then arms db.persist
		// before starting the flusher/checkpointer goroutines.
		if err := openPersist(db, *opts.Persist); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// stripeIndex hashes a series key onto its stripe.
func stripeIndex(key string) uint32 {
	return hashx.FNV1a32(key)
}

// WriteStats returns (points written, points dropped by retention).
func (db *DB) WriteStats() (written, dropped uint64) {
	return db.written.Load(), db.dropped.Load()
}

// advanceMaxT raises the global newest-point clock to t and returns the
// current maximum.
func (db *DB) advanceMaxT(t int64) int64 {
	for {
		cur := db.maxT.Load()
		if t <= cur {
			return cur
		}
		if db.maxT.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// Write stores one point: a WriteBatch of one, with the same validation,
// retention, WAL and Close contracts. Tags are sorted in place.
func (db *DB) Write(p *Point) error {
	_, err := db.WriteBatch([]Point{*p})
	return err
}

// WriteBatch stores all points, taking each involved stripe lock once per
// phase, so synchronization is amortized across a whole burst. Tags are
// sorted in place. Points older than the retention horizon are dropped. A
// point with no fields (ErrNoFields), with duplicate field keys or with an
// identifier Snapshot could not write back (ErrBadRef, see lineSafe) fails
// the entire batch before anything is logged or written. On a persistent
// DB the batch is logged to the WAL before it is applied (fsync per
// Options.Persist.Fsync); a WAL append failure fails the write, so
// recoverable state never runs behind what queries can see. ErrClosedDB
// from a concurrent Close, however, may leave the batch partially applied
// (whole stripes are written atomically, the batch as a whole is not):
// applied reports how many points were handled (stored or retention-
// dropped) so callers can account for the remainder exactly — do not retry
// the batch.
//
// WriteBatch is the string-keyed front of the one write path: it resolves
// each point's (series, ordered field keys) shape to its interned handle —
// interning a shape on first sight, before the WAL append — and commits
// through WriteBatchRef, which callers that keep the handle (Ref) use
// directly.
func (db *DB) WriteBatch(pts []Point) (applied int, err error) {
	if len(pts) == 0 {
		return 0, nil
	}
	if db.closed.Load() {
		return 0, ErrClosedDB
	}
	sc := db.scratchPool.Get().(*writeScratch)
	if err = db.resolve(pts, sc); err == nil {
		applied, err = db.WriteBatchRef(sc.rpts)
	}
	db.scratchPool.Put(sc)
	return applied, err
}

// resolve stages every point of pts into sc — validating all of them first —
// and then fills sc.rpts with each point's handle, time and values, taking
// each involved stripe lock once. A shape seen for the first time is
// interned (newRefLocked): an ident with no chunks, invisible to queries
// until a write lands in it.
func (db *DB) resolve(pts []Point, sc *writeScratch) error {
	sc.reset()
	for i := range pts {
		if err := sc.stage(&pts[i], db.mask); err != nil {
			return err
		}
	}
	sc.rpts = slices.Grow(sc.rpts[:0], len(pts))[:len(pts)]
	for s, st := range db.stripes {
		locked := false
		for i, sid := range sc.sids {
			if sid != uint32(s) {
				continue
			}
			if !locked {
				st.mu.Lock()
				locked = true
			}
			p := &pts[i]
			rk := sc.arena[sc.offs[i]:sc.offs[i+1]]
			rs := st.refs[string(rk)] // no-alloc map lookup
			if rs == nil {
				fields := make([]string, len(p.Fields))
				for j, f := range p.Fields {
					fields[j] = f.Key
				}
				rs = db.newRefLocked(st, rk, p.Name, p.Tags, fields)
			}
			sc.rpts[i] = RefPoint{Ref: rs.ref, Time: p.Time, Vals: sc.vals[sc.voffs[i]:sc.voffs[i+1]]}
		}
		if locked {
			st.mu.Unlock()
		}
	}
	return nil
}

// WriteLine parses one line-protocol record and stores it.
func (db *DB) WriteLine(line string) error {
	var p Point
	if err := ParseLine(line, &p); err != nil {
		return err
	}
	return db.Write(&p)
}

// CheckWriteTime refuses, with ErrAheadOfHorizon, a point time more than
// the tightest retention (raw or any tier) ahead of the newest stored
// point: storing it would move the retention clock forward, expire that
// history and drop every later on-time write. Write itself takes any
// time; POST /write, whose timestamps come from outside the program,
// calls this first. A store whose clock has not started (newest point at
// 0) takes any time.
func (db *DB) CheckWriteTime(t int64) error {
	if ret := db.sweepRet; ret > 0 {
		if newest := db.maxT.Load(); newest != 0 && t > newest && t-newest > ret {
			return fmt.Errorf("%w: time %d is %v ahead of the newest point, more than the %v retention",
				ErrAheadOfHorizon, t, time.Duration(t-newest), time.Duration(ret))
		}
	}
	return nil
}

// maybeSweepAll retires expired chunks from EVERY stripe whenever the
// tightest retention horizon (raw or any rollup tier) crosses into a new
// shard slot. Write-path retention only purges the stripe being written,
// so without this sweep a stripe whose series go idle would keep its
// expired chunks (and serve them to queries) forever. The CAS bounds the
// sweep to one writer per horizon shard — at most once per ShardDuration
// of data time.
func (db *DB) maybeSweepAll(maxT int64) {
	if db.sweepRet <= 0 || db.closed.Load() {
		return
	}
	hs := floorDiv(maxT-db.sweepRet, db.opts.ShardDuration)
	for {
		cur := db.sweptShard.Load()
		if hs <= cur {
			return
		}
		if db.sweptShard.CompareAndSwap(cur, hs) {
			break
		}
	}
	for _, st := range db.stripes {
		st.mu.Lock()
		// Recheck under the lock: a Close (e.g. ahead of a shutdown
		// Snapshot) must stop an in-flight sweep from purging chunks the
		// snapshot still expects to dump.
		if db.closed.Load() {
			st.mu.Unlock()
			return
		}
		db.enforceRetentionLocked(st, maxT)
		st.mu.Unlock()
	}
}

// enforceRetentionLocked drops from one stripe every whole shard slot that
// ends at or before its level's horizon: raw storage behind
// Options.Retention, each rollup tier behind its own. Every write runs it,
// so the nothing-expired case is one comparison per level. Caller holds
// st.mu.
func (db *DB) enforceRetentionLocked(st *stripe, maxT int64) {
	for lvl, starts := range st.starts {
		ret := db.opts.Retention
		if lvl > 0 {
			ret = db.opts.Rollups[lvl-1].Retention
		}
		horizon := maxT - ret
		if ret <= 0 || len(starts) == 0 || starts[0]+db.opts.ShardDuration > horizon {
			continue
		}
		n := 1
		for n < len(starts) && starts[n]+db.opts.ShardDuration <= horizon {
			n++
		}
		st.starts[lvl] = dropHead(starts, n)
		if lvl > 0 {
			st.layoutGen++
		}
		for _, id := range st.idents {
			k := 0
			if lvl == 0 {
				for k < len(id.raw) && id.raw[k].end <= horizon {
					k++
				}
				id.raw = dropHead(id.raw, k)
			} else {
				list := id.tiers[lvl-1]
				for k < len(list) && list[k].end <= horizon {
					k++
				}
				id.tiers[lvl-1] = dropHead(list, k)
			}
		}
	}
}

// dropHead removes the first n elements of s by moving the survivors down
// and zeroing the vacated tail: re-slicing s[n:] instead would keep every
// dropped chunk reachable through the backing array.
func dropHead[E any](s []E, n int) []E {
	if n == 0 {
		return s
	}
	m := copy(s, s[n:])
	clear(s[m:])
	return s[:m]
}

// ShardCount returns the number of live raw shard slots (a time slice
// present in several stripes counts once).
func (db *DB) ShardCount() int {
	seen := map[int64]struct{}{}
	for _, st := range db.stripes {
		st.mu.RLock()
		for _, start := range st.starts[0] {
			seen[start] = struct{}{}
		}
		st.mu.RUnlock()
	}
	return len(seen)
}

// SeriesCount returns the number of live raw chunks: each series counts once
// per raw shard slot it currently has points in, so a series spanning three
// retained slots counts three times and one whose raw points have all
// expired counts zero (whatever the rollup tiers still hold of it).
func (db *DB) SeriesCount() int {
	n := 0
	for _, st := range db.stripes {
		st.mu.RLock()
		for _, id := range st.idents {
			n += len(id.raw)
		}
		st.mu.RUnlock()
	}
	return n
}

// TagValues returns the sorted distinct values of a tag key within
// [start, end), for dashboard pickers. A value is present when some series
// carrying it has a raw or rollup-tier chunk overlapping the range — the
// same presence rule Execute applies to groups, at whichever resolution
// serves the range. Each stripe is read-locked for its walk.
func (db *DB) TagValues(key string, start, end int64) []string {
	seen := map[string]bool{}
	for _, st := range db.stripes {
		st.mu.RLock()
		for _, id := range st.idents {
			v, ok := "", false
			for _, t := range id.tags {
				if t.Key == key {
					v, ok = t.Value, true
					break
				}
			}
			if ok && !seen[v] && id.overlaps(start, end) {
				seen[v] = true
			}
		}
		st.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Close marks the DB closed; subsequent writes fail. Taking every stripe
// lock once acts as a barrier: writes in flight finish, later ones fail.
// On a persistent DB it then stops the background flusher/checkpointer,
// flushes and fsyncs the WAL (so a clean shutdown loses nothing regardless
// of fsync policy) and releases the data-directory lock; the returned
// error is the first failure in that sequence (always nil in-memory).
// Close is idempotent: repeated calls return the first call's result.
func (db *DB) Close() error {
	db.closeOnce.Do(func() { db.closeErr = db.doClose() })
	return db.closeErr
}

func (db *DB) doClose() error {
	db.closed.Store(true)
	// Barrier for persistent writers between WAL append and apply…
	db.commitMu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	db.commitMu.Unlock()
	// …and for everything already applying under a stripe lock.
	for _, st := range db.stripes {
		st.mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		st.mu.Unlock()
	}
	if db.persist != nil {
		return db.persist.close()
	}
	return nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
