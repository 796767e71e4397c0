package tsdb

import (
	"bufio"
	"io"
	"slices"
	"sort"
)

// Snapshot serializes the database's full contents as Influx line protocol,
// one point per line — the "long-term storage" half of the paper's InfluxDB
// role. The format is interoperable: a snapshot can be replayed into a real
// InfluxDB, POSTed to another Ruru's /write endpoint (in pieces of at most
// 8 MiB, its body limit, cut at line ends), or restored with Restore.
// Checkpoints are not snapshots: they hold the same dump as binary records
// (DB.Checkpoint).
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
	pieces, points := db.stageDump(false, lineChunk)
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, b := range pieces {
		if _, err := bw.Write(b); err != nil {
			return points, err
		}
	}
	return points, bw.Flush()
}

// dumpEncoder appends one point to the pieces a dump chunk — one stripe's
// points of one shard slot — is serialized into, and returns them. A chunk
// starts from nil pieces.
type dumpEncoder func(pieces [][]byte, p *Point) [][]byte

// lineChunk is Snapshot's encoder: one piece per chunk, a line per point.
func lineChunk(pieces [][]byte, p *Point) [][]byte {
	if pieces == nil {
		pieces = [][]byte{nil}
	}
	pieces[0] = append(MarshalLine(pieces[0], p), '\n')
	return pieces
}

// stageDump serializes every stripe's raw chunks through encode and returns
// the pieces in slot start order (ascending) plus the total point count. If
// preLocked, the caller already holds every stripe's read lock (the
// checkpoint cut); otherwise each stripe is read-locked just for its copy.
// Either way a stripe's lock is released the moment that stripe is staged.
// Within a slot, series come out in interned order, so two dumps of the
// same state are the same bytes.
//
// The ascending order is load-bearing for restores into retention-bounded
// DBs: retention keeps whole shard slots, so a slot straddling the horizon
// holds points individually older than it. Replaying old→new stores those
// sliver points while the horizon is still behind them; any other order
// would re-drop them at write time and a checkpoint/restore cycle would
// silently lose live data (pinned by
// TestPersistCheckpointPreservesRetentionSliver).
func (db *DB) stageDump(preLocked bool, encode dumpEncoder) (pieces [][]byte, points int64) {
	type chunk struct {
		start  int64
		pieces [][]byte
	}
	type member struct {
		id *seriesIdent
		sr *series
	}
	var chunks []chunk
	var p Point
	for _, st := range db.stripes {
		if !preLocked {
			st.mu.RLock()
		}
		slots := st.starts[0]
		bySlot := make([][]member, len(slots))
		for _, id := range st.idents {
			for _, sr := range id.raw {
				i, _ := slices.BinarySearch(slots, sr.start) // every chunk's slot is listed
				bySlot[i] = append(bySlot[i], member{id, sr})
			}
		}
		for i, members := range bySlot {
			var c [][]byte
			for _, m := range members {
				p.Name, p.Tags = m.id.name, m.id.tags
				for row, ts := range m.sr.times {
					p.Fields = p.Fields[:0]
					for ci, k := range m.sr.fkeys {
						if v := m.sr.cols[ci][row]; v == v { // NaN: field absent for this point
							p.Fields = append(p.Fields, Field{Key: k, Value: v})
						}
					}
					if len(p.Fields) > 0 {
						p.Time = ts
						c = encode(c, &p)
						points++
					}
				}
			}
			if c != nil {
				chunks = append(chunks, chunk{slots[i], c})
			}
		}
		st.mu.RUnlock()
	}
	sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].start < chunks[j].start })
	for _, c := range chunks {
		pieces = append(pieces, c.pieces...)
	}
	return pieces, points
}

// Restore replays a line-protocol stream (as produced by Snapshot) into the
// database. Points flow through the normal write path: retention applies,
// rollup tiers are fed, and on a persistent DB each restored point is
// WAL-logged like any other write. Returns the number of points written;
// stops at the first malformed line. It also loads a checkpoint an older,
// line-protocol binary wrote.
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
