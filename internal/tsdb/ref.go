package tsdb

// Interned series shapes: the one write path.
//
// Everything that identifies where a point lands — its series, the column
// of each field, the rollup-tier columns — never changes for a given
// (name, tags, ordered field keys) shape, so it is interned once as a
// refState caching the resolved series pointer, per-field column indices
// and per-tier column pointers. Every write applies through that cache
// (writeRefLocked): a handful of bounds checks and column appends, zero heap
// allocations in steady state. There are two ways in. Write/WriteBatch take
// full Points and look the shape up by its ref key in the owning stripe's
// refs map, under the stripe lock they hold anyway (db.go). Ref hands the
// same refState out as a small integer SeriesRef, so a caller that keeps
// the handle (the sink workers, the federation aggregator) skips even the
// key build and the map probe with WriteBatchRef.
//
// The series directory is published copy-on-write behind an atomic.Pointer
// (the userspace-RCU idiom): writers append under db.dirMu and then store a
// fresh seriesDir header; readers (Execute, TagValues, WriteBatchRef's ref
// resolution) load the pointer and walk an immutable snapshot without
// taking any lock. Each interned identity (seriesIdent) likewise publishes
// its per-shard placement lists copy-on-write, mutated only under the
// owning stripe's lock, so queries can discover where a series lives
// without contending with ingest stripe locks.
//
// Lock order: commitMu → stripe mu → dirMu. Nothing takes a stripe lock
// while holding dirMu.

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"ruru/internal/hashx"
)

// SeriesRef is an interned series handle issued by DB.Ref. Refs are only
// meaningful on the DB that issued them.
type SeriesRef uint32

// RefPoint is one datum addressed by a SeriesRef: Vals[i] is the value of
// the ref's i-th field key (as passed to Ref). A NaN value means the field
// is absent for this point — identical to a NaN Field.Value given to Write.
type RefPoint struct {
	Ref  SeriesRef
	Time int64
	Vals []float64
}

// seriesDir is the copy-on-write series directory snapshot. The backing
// arrays are append-only: a new ident/ref is appended in place under dirMu
// (into spare capacity or via realloc) and then a fresh header is
// published, so a reader's snapshot never observes an entry beyond its own
// len.
type seriesDir struct {
	idents []*seriesIdent
	refs   []*refState
}

// seriesIdent is one interned (measurement, sorted tagset) identity. It is
// the canonical owner of the series' key/name/tags strings — shards and
// refs alias them — and publishes where the series currently lives (raw
// shards, tier shards) as copy-on-write lists mutated only under the
// owning stripe's lock.
type seriesIdent struct {
	key       string
	name      string
	tags      []Tag // sorted; owned by the ident, aliased everywhere else
	stripeIdx uint32

	raw   atomic.Pointer[[]identShard]
	tiers []atomic.Pointer[[]identTierShard] // one per Options.Rollups entry
}

// identShard is one raw-shard placement of a series.
type identShard struct {
	start, end int64
	sr         *series
}

// identTierShard is one tier-shard placement of a series.
type identTierShard struct {
	start, end int64
	ts         *tierSeries
}

func (id *seriesIdent) rawShards() []identShard {
	if p := id.raw.Load(); p != nil {
		return *p
	}
	return nil
}

func (id *seriesIdent) tierShards(ti int) []identTierShard {
	if p := id.tiers[ti].Load(); p != nil {
		return *p
	}
	return nil
}

// addRawShard publishes a new raw placement, keeping the list sorted by
// shard start. Caller holds the owning stripe's write lock (the only
// mutator of this ident's lists).
func (id *seriesIdent) addRawShard(e identShard) {
	old := id.rawShards()
	next := make([]identShard, 0, len(old)+1)
	i := 0
	for ; i < len(old) && old[i].start < e.start; i++ {
		next = append(next, old[i])
	}
	next = append(next, e)
	next = append(next, old[i:]...)
	id.raw.Store(&next)
}

// dropRawShard unpublishes the placement for the pruned shard starting at
// start. Caller holds the owning stripe's write lock.
func (id *seriesIdent) dropRawShard(start int64) {
	old := id.rawShards()
	next := make([]identShard, 0, len(old))
	for _, e := range old {
		if e.start != start {
			next = append(next, e)
		}
	}
	id.raw.Store(&next)
}

func (id *seriesIdent) addTierShard(ti int, e identTierShard) {
	old := id.tierShards(ti)
	next := make([]identTierShard, 0, len(old)+1)
	i := 0
	for ; i < len(old) && old[i].start < e.start; i++ {
		next = append(next, old[i])
	}
	next = append(next, e)
	next = append(next, old[i:]...)
	id.tiers[ti].Store(&next)
}

func (id *seriesIdent) dropTierShard(ti int, start int64) {
	old := id.tierShards(ti)
	next := make([]identTierShard, 0, len(old))
	for _, e := range old {
		if e.start != start {
			next = append(next, e)
		}
	}
	id.tiers[ti].Store(&next)
}

// refState is one interned shape and its write cache: the identity, the
// ordered field set, the handle Ref returns for it, and hot pointers into
// the current shard. hot is guarded by the ident's stripe lock (the write
// path only touches it with that lock held).
type refState struct {
	ident     *seriesIdent
	fieldKeys []string
	ref       SeriesRef
	hot       refHot
}

// refHot caches the resolution of a ref against one raw shard and the
// matching tier shards: the series pointer, each field's column index, and
// each tier's column pointers. Two refs with different field sets can share
// one series: ncols snapshots len(sr.cols) at resolve time so the other ref
// adding a column forces a re-resolve, and mixed records that the series
// has columns this ref does not carry, which every write must pad with NaN
// to keep all columns aligned with times. That is mixed's only purpose.
type refHot struct {
	shardStart int64
	sr         *series
	colIdx     []int32
	ncols      int
	mixed      bool
	tiers      []refTierHot
}

// refTierHot caches one tier's resolution: the tier series and one column
// pointer per ref field (nil until the field's first non-NaN value, so a
// never-written field creates no tier column).
type refTierHot struct {
	shardStart int64
	ts         *tierSeries
	cols       []*tierColumn
}

// loadDir returns the current directory snapshot (never nil).
func (db *DB) loadDir() *seriesDir {
	return db.dir.Load()
}

// publishDirLocked publishes the current backing arrays as a fresh
// snapshot. Caller holds dirMu.
func (db *DB) publishDirLocked() {
	db.dir.Store(&seriesDir{idents: db.identsBuf, refs: db.refsBuf})
}

// internLocked returns the ident for key, creating and publishing it if
// new. Caller holds dirMu. tags must be sorted; they are copied.
func (db *DB) internLocked(name string, tags []Tag, key []byte) *seriesIdent {
	if id, ok := db.byKey[string(key)]; ok {
		return id
	}
	id := &seriesIdent{
		key:   string(key),
		name:  name,
		tags:  append([]Tag(nil), tags...),
		tiers: make([]atomic.Pointer[[]identTierShard], len(db.opts.Rollups)),
	}
	id.stripeIdx = stripeIndex(id.key) & db.mask
	db.byKey[id.key] = id
	db.identsBuf = append(db.identsBuf, id)
	db.publishDirLocked()
	return id
}

// appendRefKeyHead appends the head of a ref key — the uvarint-prefixed
// series key of (name, sorted tags) — and returns the offset of the series
// key itself, whose bytes pick the stripe. The full ref key, the identity
// of one (series, ordered field keys) shape, is this head followed by each
// field key through appendString; length prefixes make it unambiguous.
func appendRefKeyHead(buf []byte, name string, tags []Tag) (out []byte, keyAt int) {
	n := len(name)
	for _, t := range tags {
		n += 2 + len(t.Key) + len(t.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	return appendSeriesKey(buf, name, tags), len(buf)
}

// newRefLocked interns the shape with ref key rk, never seen before, into
// st.refs and the directory. Caller holds st.mu (the stripe rk's series key
// hashes to) and has validated the shape: tags sorted, fields non-empty and
// distinct. tags are copied; fields is kept.
func (db *DB) newRefLocked(st *stripe, rk []byte, name string, tags []Tag, fields []string) *refState {
	rs := &refState{fieldKeys: fields}
	rs.hot.colIdx = make([]int32, len(fields))
	rs.hot.tiers = make([]refTierHot, len(db.opts.Rollups))
	for ti := range rs.hot.tiers {
		rs.hot.tiers[ti].cols = make([]*tierColumn, len(fields))
	}
	n, w := binary.Uvarint(rk)
	db.dirMu.Lock()
	rs.ident = db.internLocked(name, tags, rk[w:w+int(n)])
	rs.ref = SeriesRef(len(db.refsBuf))
	db.refsBuf = append(db.refsBuf, rs)
	db.publishDirLocked()
	db.dirMu.Unlock()
	st.refs[string(rk)] = rs
	return rs
}

// Ref interns a series identity plus an ordered field set and returns a
// reusable handle for WriteBatchRef. Tags are copied and sorted; fields
// must be non-empty and distinct. Calling Ref again with the same
// (name, tags, fields) returns the same handle — the one Write/WriteBatch
// use for points of that shape. Refs are cheap to hold and never
// invalidated for the life of the DB.
func (db *DB) Ref(name string, tags []Tag, fields ...string) (SeriesRef, error) {
	if db.closed.Load() {
		return 0, ErrClosedDB
	}
	if len(fields) == 0 {
		return 0, ErrNoFields
	}
	for i := range fields {
		for j := i + 1; j < len(fields); j++ {
			if fields[i] == fields[j] {
				return 0, ErrBadRef
			}
		}
	}
	sorted := append([]Tag(nil), tags...)
	sortTags(sorted)
	rk, keyAt := appendRefKeyHead(nil, name, sorted)
	st := db.stripes[hashx.FNV1a32Bytes(rk[keyAt:])&db.mask]
	for _, f := range fields {
		rk = appendString(rk, f)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rs := st.refs[string(rk)]
	if rs == nil {
		rs = db.newRefLocked(st, rk, name, sorted, append([]string(nil), fields...))
	}
	return rs.ref, nil
}

// WriteBatchRef stores all points through their interned handles — the
// zero-allocation fast path. Semantics match WriteBatch exactly: one stripe
// lock per involved stripe, retention applied per point, rollup tiers fed,
// WAL-logged as full (name, tags, fields) records on a persistent DB (the
// wire/durability formats are unchanged), and the same partial-apply
// contract under a concurrent Close. A NaN in Vals writes a NaN field
// value (the point still lands; queries skip the NaN), bit-identical to
// WriteBatch. Fails with ErrBadRef before writing anything if any
// point carries an unknown ref or a Vals length that does not match the
// ref's field set.
//
// Steady state (in-memory DB, warm columns) must not allocate; the noalloc
// analyzer enforces the construct-level discipline and the
// db/write-batch-ref-steady bench entry gates the measured result.
//
//ruru:noalloc
func (db *DB) WriteBatchRef(pts []RefPoint) (applied int, err error) {
	if len(pts) == 0 {
		return 0, nil
	}
	if db.closed.Load() {
		return 0, ErrClosedDB
	}
	d := db.dir.Load()
	refs := d.refs
	batchMax := int64(math.MinInt64)
	for i := range pts {
		p := &pts[i]
		if int(p.Ref) >= len(refs) || len(p.Vals) != len(refs[p.Ref].fieldKeys) {
			return 0, ErrBadRef
		}
		if p.Time > batchMax {
			batchMax = p.Time
		}
	}
	if pr := db.persist; pr != nil {
		// Materialize full (name, tags, fields) points into pooled scratch
		// for the WAL: the durable format stays self-describing, so
		// crash/restore and federation remain oblivious to refs.
		db.commitMu.RLock()
		defer db.commitMu.RUnlock()
		if db.closed.Load() {
			return 0, ErrClosedDB
		}
		if err := db.logRefBatch(pr, refs, pts); err != nil {
			return 0, err
		}
	}
	maxT := db.advanceMaxT(batchMax)
	db.maybeSweepAll(maxT)
	for s, st := range db.stripes {
		touched := false
		for i := range pts {
			if refs[pts[i].Ref].ident.stripeIdx == uint32(s) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		st.mu.Lock()
		if db.closed.Load() {
			st.mu.Unlock()
			return applied, ErrClosedDB
		}
		for i := range pts {
			rs := refs[pts[i].Ref]
			if rs.ident.stripeIdx != uint32(s) {
				continue
			}
			db.writeRefLocked(st, rs, pts[i].Time, pts[i].Vals, maxT)
			applied++
		}
		st.mu.Unlock()
	}
	return applied, nil
}

// writeRefLocked appends one point (vals[i] is the value of rs's i-th field)
// to its series in st and feeds the rollup tiers — the only code that does
// either. Caller holds st.mu. Raw and tier retention are independent: the
// tiers go first because a point too old for raw storage (counted in
// dropped) can still land in a coarse tier whose longer horizon covers it.
//
//ruru:noalloc
func (db *DB) writeRefLocked(st *stripe, rs *refState, t int64, vals []float64, maxT int64) {
	if len(db.opts.Rollups) > 0 {
		db.writeRefTiersLocked(st, rs, t, vals, maxT)
	}
	if db.opts.Retention > 0 && t < maxT-db.opts.Retention {
		db.dropped.Add(1)
		db.enforceRetentionLocked(st, maxT)
		db.noteBackfill(t, maxT) // tiers may still have absorbed it
		return
	}
	start := floorDiv(t, db.opts.ShardDuration) * db.opts.ShardDuration
	h := &rs.hot
	sr := h.sr
	if sr == nil || h.shardStart != start || len(sr.cols) != h.ncols {
		sr = db.resolveRefRaw(st, rs, start)
	}
	sr.times = append(sr.times, t)
	for i, v := range vals {
		ci := h.colIdx[i]
		sr.cols[ci] = append(sr.cols[ci], v)
	}
	if h.mixed {
		for ci := range sr.cols {
			if len(sr.cols[ci]) < len(sr.times) {
				sr.cols[ci] = append(sr.cols[ci], nan)
			}
		}
	}
	db.written.Add(1)
	db.enforceRetentionLocked(st, maxT)
	db.noteBackfill(t, maxT)
}

// resolveRefRaw points the ref's hot cache at the raw shard starting at
// start, creating shard/series/columns as needed. Caller holds st.mu.
func (db *DB) resolveRefRaw(st *stripe, rs *refState, start int64) *series {
	sh := db.shardAt(st, start)
	id := rs.ident
	sr, ok := sh.series[id.key]
	if !ok {
		sr = &series{name: id.name, tags: id.tags, ident: id}
		sh.series[id.key] = sr
		id.addRawShard(identShard{start: sh.start, end: sh.end, sr: sr})
	}
	h := &rs.hot
	h.sr = sr
	h.shardStart = start
	for i, k := range rs.fieldKeys {
		ci := sr.findCol(k)
		if ci < 0 {
			ci = sr.addCol(k)
		}
		h.colIdx[i] = int32(ci)
	}
	h.ncols = len(sr.cols)
	h.mixed = h.ncols > len(rs.fieldKeys)
	return sr
}

// writeRefTiersLocked folds one point into every tier whose retention still
// covers it. Caller holds st.mu.
//
//ruru:noalloc
func (db *DB) writeRefTiersLocked(st *stripe, rs *refState, t int64, vals []float64, maxT int64) {
	// One histogram bin computation per field, shared across tiers.
	var binsArr [8]uint16
	var bins []uint16
	if len(vals) <= len(binsArr) {
		bins = binsArr[:len(vals)]
	} else {
		bins = make([]uint16, len(vals))
	}
	for i, v := range vals {
		if !math.IsNaN(v) {
			bins[i] = binOf(v)
		}
	}
	for ti := range db.opts.Rollups {
		tier := &db.opts.Rollups[ti]
		if tier.Retention > 0 && t < maxT-tier.Retention {
			continue
		}
		bStart := floorDiv(t, tier.Width) * tier.Width
		shStart := floorDiv(bStart, db.opts.ShardDuration) * db.opts.ShardDuration
		th := &rs.hot.tiers[ti]
		if th.ts == nil || th.shardStart != shStart {
			db.resolveRefTier(st, rs, ti, shStart)
		}
		for i, v := range vals {
			if math.IsNaN(v) {
				continue // raw queries skip NaN; keep tiers equivalent
			}
			col := th.cols[i]
			if col == nil {
				k := rs.fieldKeys[i]
				col = th.ts.fields[k]
				if col == nil {
					col = &tierColumn{}
					th.ts.fields[k] = col
				}
				th.cols[i] = col
			}
			col.at(bStart).add(v, bins[i])
		}
	}
}

// resolveRefTier points the ref's tier-hot cache at the tier shard starting
// at shStart, creating shard/series as needed. Caller holds st.mu.
func (db *DB) resolveRefTier(st *stripe, rs *refState, ti int, shStart int64) {
	tstr := &st.tiers[ti]
	sh, ok := tstr.shards[shStart]
	if !ok {
		sh = &tierShard{
			start:  shStart,
			end:    shStart + db.opts.ShardDuration,
			series: make(map[string]*tierSeries),
		}
		tstr.shards[shStart] = sh
		tstr.order = insertSorted(tstr.order, shStart)
	}
	id := rs.ident
	ts, ok := sh.series[id.key]
	if !ok {
		ts = &tierSeries{name: id.name, tags: id.tags, ident: id, fields: make(map[string]*tierColumn)}
		sh.series[id.key] = ts
		id.addTierShard(ti, identTierShard{start: sh.start, end: sh.end, ts: ts})
	}
	th := &rs.hot.tiers[ti]
	th.ts = ts
	th.shardStart = shStart
	for i := range th.cols {
		th.cols[i] = ts.fields[rs.fieldKeys[i]] // nil until first value
	}
}

// refLogScratch is pooled scratch for materializing a ref batch into full
// WAL points.
type refLogScratch struct {
	pts    []Point
	fields []Field
}

var refLogPool = sync.Pool{New: func() any { return &refLogScratch{} }}

// logRefBatch WAL-logs a ref batch as full self-describing points. Tags
// alias the idents' owned slices and field headers point into one arena —
// safe because the WAL encoder copies everything into its own buffers
// before logBatch returns.
func (db *DB) logRefBatch(pr *persister, refs []*refState, pts []RefPoint) error {
	sc := refLogPool.Get().(*refLogScratch)
	total := 0
	for i := range pts {
		total += len(refs[pts[i].Ref].fieldKeys)
	}
	if cap(sc.fields) < total {
		sc.fields = make([]Field, 0, total)
	}
	if cap(sc.pts) < len(pts) {
		sc.pts = make([]Point, 0, len(pts))
	}
	fields := sc.fields[:0]
	out := sc.pts[:0]
	for i := range pts {
		rs := refs[pts[i].Ref]
		base := len(fields)
		for j, k := range rs.fieldKeys {
			fields = append(fields, Field{Key: k, Value: pts[i].Vals[j]})
		}
		out = append(out, Point{
			Name:   rs.ident.name,
			Tags:   rs.ident.tags,
			Fields: fields[base:len(fields):len(fields)],
			Time:   pts[i].Time,
		})
	}
	err := pr.logBatch(out)
	sc.pts, sc.fields = out[:0], fields[:0]
	refLogPool.Put(sc)
	return err
}
