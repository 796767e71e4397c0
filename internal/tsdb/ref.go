package tsdb

// Interned series shapes: the one write path.
//
// Everything that identifies where a point lands — its series, the column
// of each field, each field's place in the rollup-tier rows — never changes
// for a given (name, tags, ordered field keys) shape, so it is interned once
// as a refState caching the resolved series pointer, per-field column
// indices and per-tier chunks and cell positions. Every write applies
// through that cache (writeRefLocked): a handful of bounds checks, column
// appends and cell updates, zero heap allocations in steady state. Every
// write commits through WriteBatchRef. Write/WriteBatch are a front that
// takes full Points, validates them, and looks each shape up by its ref key
// in the owning stripe's refs map, interning it on a miss (db.go). Ref
// hands the same refState out as a small integer SeriesRef, so a caller
// that keeps the handle (the sink workers, the federation aggregator) skips
// even the key build and the map probe.
//
// The series directory is published copy-on-write behind an atomic.Pointer
// (the userspace-RCU idiom): writers append under db.dirMu and then store a
// fresh seriesDir header; readers (Execute's series matching, WriteBatchRef's
// ref resolution) load the pointer and walk an immutable snapshot without
// taking any lock. That is the whole lock-free part: what a series stores —
// the chunk lists on its seriesIdent — belongs to the owning stripe and is
// read and written under that stripe's lock, like the chunks themselves.
//
// Lock order: commitMu → stripe mu → dirMu. Nothing takes a stripe lock
// while holding dirMu.

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"
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

// seriesIdent is one interned (measurement, sorted tagset) identity and the
// only index of what the series stores. key, name, tags and stripeIdx are
// immutable once the ident is published (refs and WAL records alias the
// strings); raw and tiers are the series' chunks, one per shard slot it has
// data in, sorted by slot start, guarded by the owning stripe's lock. A tier
// list is nil until its first chunk; retention empties it without making it
// nil again, so a nil list tells a kept query walk (qcache.go) that the
// series' next chunk there needs no re-walk.
type seriesIdent struct {
	key       string
	name      string
	tags      []Tag // sorted; owned by the ident, aliased everywhere else
	stripeIdx uint32

	raw   []*series
	tiers [][]*tierSeries // one list per Options.Rollups entry
}

// overlaps reports whether any raw or tier chunk of the series overlaps
// [start, end). Caller holds the owning stripe's lock.
func (id *seriesIdent) overlaps(start, end int64) bool {
	for _, sr := range id.raw {
		if sr.end > start && sr.start < end {
			return true
		}
	}
	for _, list := range id.tiers {
		for _, ts := range list {
			if ts.end > start && ts.start < end {
				return true
			}
		}
	}
	return false
}

// refState is one interned shape and its write cache: the identity, the
// ordered field set, the handle Ref returns for it, and hot pointers into
// the current chunks. hot is guarded by the ident's stripe lock (the write
// path only touches it with that lock held).
type refState struct {
	ident     *seriesIdent
	fieldKeys []string
	ref       SeriesRef
	hot       refHot
}

// refHot caches the resolution of a ref against one raw chunk and the
// matching tier chunks: the series pointer, each field's column index, and
// each tier's chunk and cell positions. Two refs with different field sets
// can share one series: ncols snapshots len(sr.cols) at resolve time so the
// other ref adding a column forces a re-resolve, and mixed records that the
// series has columns this ref does not carry, which every write must pad
// with NaN to keep all columns aligned with times. That is mixed's only
// purpose.
type refHot struct {
	sr     *series
	colIdx []int32
	ncols  int
	mixed  bool
	tiers  []refTierHot
}

// refTierHot caches one tier's resolution: the tier chunk and, per ref
// field, its position in the chunk's rows (-1 until the field's first
// non-NaN value in the chunk, so a never-written field takes no cells).
// Positions stay valid when another ref adds a field, since a chunk's keys
// only grow at the end. shardStart repeats ts.start so that the per-point
// "same slot?" test reads the cache, not the chunk: at 20 k series the chunk
// header is a cache miss per tier per point (the raw side reads sr.start, on
// the line it loads for sr.cols anyway).
type refTierHot struct {
	shardStart int64
	ts         *tierSeries
	cols       []int32
}

// publishDirLocked publishes the current backing arrays as a fresh
// snapshot. Caller holds dirMu.
func (db *DB) publishDirLocked() {
	db.dir.Store(&seriesDir{idents: db.identsBuf, refs: db.refsBuf})
}

// internLocked returns the ident for key, creating it, listing it in its
// stripe st and publishing it if new. Caller holds st.mu and dirMu. tags
// must be sorted; they are copied.
func (db *DB) internLocked(st *stripe, name string, tags []Tag, key []byte) *seriesIdent {
	if id, ok := db.byKey[string(key)]; ok {
		return id
	}
	id := &seriesIdent{
		key:   string(key),
		name:  name,
		tags:  append([]Tag(nil), tags...),
		tiers: make([][]*tierSeries, len(db.opts.Rollups)),
	}
	id.stripeIdx = stripeIndex(id.key) & db.mask
	db.byKey[id.key] = id
	db.identsBuf = append(db.identsBuf, id)
	st.idents = append(st.idents, id)
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
		rs.hot.tiers[ti].cols = make([]int32, len(fields))
	}
	n, w := binary.Uvarint(rk)
	db.dirMu.Lock()
	rs.ident = db.internLocked(st, name, tags, rk[w:w+int(n)])
	rs.ref = SeriesRef(len(db.refsBuf))
	db.refsBuf = append(db.refsBuf, rs)
	db.publishDirLocked()
	db.dirMu.Unlock()
	st.refs[string(rk)] = rs
	return rs
}

// Ref interns a series identity plus an ordered field set and returns a
// reusable handle for WriteBatchRef. Tags are copied and sorted; the shape
// is validated as WriteBatch validates a point's (ErrNoFields, ErrBadRef).
// Calling Ref again with the same (name, tags, fields) returns the same
// handle — the one WriteBatch resolves points of that shape to. Refs are
// cheap to hold and never invalidated for the life of the DB.
func (db *DB) Ref(name string, tags []Tag, fields ...string) (SeriesRef, error) {
	if db.closed.Load() {
		return 0, ErrClosedDB
	}
	p := Point{Name: name, Tags: append([]Tag(nil), tags...), Fields: make([]Field, len(fields))}
	for i, k := range fields {
		p.Fields[i].Key = k
	}
	sc := db.scratchPool.Get().(*writeScratch)
	defer db.scratchPool.Put(sc)
	if err := db.resolve([]Point{p}, sc); err != nil {
		return 0, err
	}
	return sc.rpts[0].Ref, nil
}

// WriteBatchRef stores all points through their interned handles: the
// commit of every write, WriteBatch's included. It checks Close, holds
// commitMu.RLock from the WAL append (full self-describing (name, tags,
// fields) records, see logRefBatch) through the apply, then takes one
// stripe lock per involved stripe — so the semantics are WriteBatch's
// exactly, partial-apply contract under a concurrent Close included.
// Retention judges each point by the clock the points before it in the
// batch set, so a batch stores and drops exactly what the same points
// written one at a time in batch order would. A NaN in Vals writes a NaN
// field value (the point still lands; queries skip the NaN), bit-identical
// to WriteBatch.
// Fails with ErrBadRef before writing anything if any point carries an
// unknown ref or a Vals length that does not match the ref's field set.
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
		// Hold commitMu.RLock from the WAL append through the in-memory
		// apply: the checkpoint cut depends on no write being between the
		// two when it rotates the log, and Close's barrier on none being
		// past the closed check below.
		db.commitMu.RLock()
		defer db.commitMu.RUnlock()
		if db.closed.Load() {
			return 0, ErrClosedDB
		}
		if err := db.logRefBatch(pr, refs, pts); err != nil {
			return 0, err
		}
	}
	clock := db.maxT.Load()
	maxT := db.advanceMaxT(batchMax)
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
		now := clock
		for i := range pts {
			now = max(now, pts[i].Time)
			rs := refs[pts[i].Ref]
			if rs.ident.stripeIdx != uint32(s) {
				continue
			}
			db.writeRefLocked(st, rs, pts[i].Time, pts[i].Vals, now, maxT)
			applied++
		}
		st.mu.Unlock()
	}
	db.sweepAfterBatch(pts, clock, maxT)
	return applied, nil
}

// sweepAfterBatch runs the all-stripe sweep a batch owes. Written one at a
// time, the points would have swept last at the first point whose clock
// put the horizon in maxT's shard slot, and that clock alone decides what
// the sweep drops, so the sweep runs at it. After the apply, not before:
// an earlier point's chunk that sweep drops must already exist to go.
//
//ruru:noalloc
func (db *DB) sweepAfterBatch(pts []RefPoint, clock, maxT int64) {
	if db.sweepRet <= 0 {
		return
	}
	slot := floorDiv(maxT-db.sweepRet, db.opts.ShardDuration)
	if slot <= db.sweptShard.Load() {
		return
	}
	for i := range pts {
		if clock = max(clock, pts[i].Time); floorDiv(clock-db.sweepRet, db.opts.ShardDuration) >= slot {
			break
		}
	}
	db.maybeSweepAll(clock)
}

// writeRefLocked appends one point (vals[i] is the value of rs's i-th field)
// to its series in st and feeds the rollup tiers — the only code that does
// either. now is the retention clock the point is judged by (the newest
// time up to it in its batch), maxT the store's newest time, which decides
// whether the point is a backfill for the query cache. Caller holds st.mu.
// Raw and tier retention are independent: the tiers go first because a
// point too old for raw storage (counted in dropped) can still land in a
// coarse tier whose longer horizon covers it.
// The horizon test comes before the hot cache on purpose: rs.hot may still
// point at a chunk retention has dropped, and only a chunk wholly behind the
// horizon is ever dropped, so the test is what keeps a straggler out of it.
//
//ruru:noalloc
func (db *DB) writeRefLocked(st *stripe, rs *refState, t int64, vals []float64, now, maxT int64) {
	if len(db.opts.Rollups) > 0 {
		db.writeRefTiersLocked(st, rs, t, vals, now)
	}
	if db.opts.Retention > 0 && t < now-db.opts.Retention {
		db.dropped.Add(1)
		db.enforceRetentionLocked(st, now)
		db.noteBackfill(t, maxT) // tiers may still have absorbed it
		return
	}
	start := floorDiv(t, db.opts.ShardDuration) * db.opts.ShardDuration
	h := &rs.hot
	sr := h.sr
	if sr == nil || sr.start != start || len(sr.cols) != h.ncols {
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
	db.enforceRetentionLocked(st, now)
	db.noteBackfill(t, maxT)
}

// resolveRefRaw points the ref's hot cache at the series' raw chunk for the
// shard slot starting at start, creating chunk and columns as needed. Caller
// holds st.mu.
func (db *DB) resolveRefRaw(st *stripe, rs *refState, start int64) *series {
	id := rs.ident
	pos, ok := slices.BinarySearchFunc(id.raw, start, func(sr *series, s int64) int { return cmp.Compare(sr.start, s) })
	if !ok {
		id.raw = slices.Insert(id.raw, pos, &series{start: start, end: start + db.opts.ShardDuration})
		st.noteSlot(0, start)
	}
	sr := id.raw[pos]
	h := &rs.hot
	h.sr = sr
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
	hasVal := false
	for i, v := range vals {
		if !math.IsNaN(v) { // raw queries skip NaN; keep tiers equivalent
			bins[i] = binOf(v)
			hasVal = true
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
		fresh := false
		if th.ts == nil || th.shardStart != shStart {
			fresh = db.resolveRefTier(st, rs, ti, shStart)
		}
		if !hasVal {
			continue // the chunk exists, as for any point in its slot; no row
		}
		ts := th.ts
		for i, v := range vals {
			if th.cols[i] < 0 && !math.IsNaN(v) {
				w := len(ts.keys)
				th.cols[i] = ts.keyIndex(rs.fieldKeys, i)
				if len(ts.keys) > w && !fresh {
					// A kept walk may have passed this chunk by for
					// lacking the field. A chunk created under this
					// lock hold no reader has seen.
					st.layoutGen++
				}
			}
		}
		row := ts.row(bStart)
		for i, v := range vals {
			if !math.IsNaN(v) {
				ts.add(&row[th.cols[i]], v, bins[i])
			}
		}
	}
}

// resolveRefTier points the ref's tier-hot cache at the series' tier-ti chunk
// for the shard slot starting at shStart, creating it as needed, and
// reports whether it created it. Caller holds st.mu.
func (db *DB) resolveRefTier(st *stripe, rs *refState, ti int, shStart int64) (created bool) {
	id := rs.ident
	list := id.tiers[ti]
	pos, ok := slices.BinarySearchFunc(list, shStart, func(ts *tierSeries, s int64) int { return cmp.Compare(ts.start, s) })
	if !ok {
		if list != nil {
			// The list has held a chunk, so a kept walk may already
			// list the series' chunks and must take this one in order.
			st.layoutGen++
		}
		list = slices.Insert(list, pos, &tierSeries{start: shStart, end: shStart + db.opts.ShardDuration})
		id.tiers[ti] = list
		st.noteSlot(1+ti, shStart)
	}
	th := &rs.hot.tiers[ti]
	th.ts = list[pos]
	th.shardStart = shStart
	for i, k := range rs.fieldKeys {
		th.cols[i] = int32(slices.Index(th.ts.keys, k))
	}
	return !ok
}

// refLogScratch is pooled scratch for materializing a ref batch into full
// WAL points.
type refLogScratch struct {
	pts    []Point
	fields []Field
}

var refLogPool = sync.Pool{New: func() any { return &refLogScratch{} }}

// logRefBatch WAL-logs a batch as full self-describing points materialized
// from the interned shapes, one record per batch (logBatch splits one too
// big for a frame): the durable format knows nothing of refs, so
// crash/restore and federation stay oblivious to them. Tags alias the
// idents' owned slices and field headers point into one arena — safe
// because the WAL encoder copies everything into its own buffers before
// logBatch returns.
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
