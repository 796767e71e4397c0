package tsdb

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"sort"
)

// Snapshot serializes the database's full contents as Influx line protocol,
// one point per line — the "long-term storage" half of the paper's InfluxDB
// role. The format is interoperable: a snapshot can be replayed into a real
// InfluxDB, POSTed to another Ruru's /write endpoint, or restored with
// Restore.
//
// Locking: the dump is staged stripe by stripe — each stripe's read lock is
// held only while that stripe's points are copied into memory, never while
// bytes travel to w. A slow consumer (a throttled HTTP client on
// GET /snapshot) therefore cannot stall writes: the worst-case write stall
// is one stripe's copy, and it costs staging memory proportional to the
// serialized size of the DB (bounded by retention). Consistency is
// per-stripe, exactly the granularity WriteBatch itself documents: a batch
// racing the staging phase can appear partially in the dump.
//
// Output is ordered by shard start time (ascending), so replaying a
// snapshot into a retention-bounded DB never drops points that were live
// when the snapshot was taken.
//
// Rollup tiers are derived data and are NOT serialized: Restore rebuilds
// them from the raw points it replays. Consequently a snapshot taken with
// short raw retention cannot reconstruct the long history a coarse tier
// held — only the raw points still inside the retention horizon survive a
// snapshot/restore round trip.
func (db *DB) Snapshot(w io.Writer) (points int64, err error) {
	chunks, points := db.stageDumpChunks(false)
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, c := range chunks {
		if _, err := bw.Write(c.data); err != nil {
			return points, err
		}
	}
	return points, bw.Flush()
}

// dumpChunk is one stripe's serialized points of one shard slot.
type dumpChunk struct {
	start int64
	data  []byte
}

// stageDumpChunks copies every stripe's raw chunks into per-slot
// line-protocol chunks and returns them sorted by slot start (ascending)
// plus the total point count. If preLocked, the caller already holds every
// stripe's read lock (the checkpoint cut); otherwise each stripe is
// read-locked just for its copy. Either way a stripe's lock is released
// the moment that stripe is staged. Within a slot, series come out in
// interned order, so two dumps of the same state are the same bytes.
//
// The ascending order is load-bearing for restores into retention-bounded
// DBs: retention keeps whole shard slots, so a slot straddling the horizon
// holds points individually older than it. Replaying old→new stores those
// sliver points while the horizon is still behind them; any other order
// would re-drop them at write time and a checkpoint/restore cycle would
// silently lose live data (pinned by
// TestPersistCheckpointPreservesRetentionSliver).
func (db *DB) stageDumpChunks(preLocked bool) ([]dumpChunk, int64) {
	var chunks []dumpChunk
	var points int64
	var p Point
	buf := make([]byte, 0, 512)
	for _, st := range db.stripes {
		if !preLocked {
			st.mu.RLock()
		}
		slots := st.starts[0]
		bufs := make([]bytes.Buffer, len(slots))
		for _, id := range st.idents {
			p.Name, p.Tags = id.name, id.tags
			for _, sr := range id.raw {
				slot, _ := slices.BinarySearch(slots, sr.start) // every chunk's slot is listed
				for i, ts := range sr.times {
					p.Fields = p.Fields[:0]
					for ci, k := range sr.fkeys {
						v := sr.cols[ci][i]
						if v != v { // NaN: field absent for this point
							continue
						}
						p.Fields = append(p.Fields, Field{Key: k, Value: v})
					}
					if len(p.Fields) == 0 {
						continue
					}
					p.Time = ts
					buf = append(MarshalLine(buf[:0], &p), '\n')
					bufs[slot].Write(buf)
					points++
				}
			}
		}
		st.mu.RUnlock()
		for i := range bufs {
			if bufs[i].Len() > 0 {
				chunks = append(chunks, dumpChunk{start: slots[i], data: bufs[i].Bytes()})
			}
		}
	}
	sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].start < chunks[j].start })
	return chunks, points
}

// Restore replays a line-protocol stream (as produced by Snapshot) into the
// database. Points flow through the normal write path: retention applies,
// rollup tiers are fed, and on a persistent DB each restored point is
// WAL-logged like any other write. Returns the number of points written;
// stops at the first malformed line.
func (db *DB) Restore(r io.Reader) (points int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var p Point
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if err := ParseLine(line, &p); err != nil {
			return points, err
		}
		if err := db.Write(&p); err != nil {
			return points, err
		}
		points++
	}
	return points, sc.Err()
}
