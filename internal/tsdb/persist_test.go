package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// persistOpts returns manual-checkpoint-only options so tests control the
// checkpoint/truncate cycle deterministically.
func persistOpts(dir string, fsync FsyncPolicy) *PersistOptions {
	return &PersistOptions{Dir: dir, Fsync: fsync, CheckpointEvery: -1}
}

// writePersistPoints writes n deterministic points: two city-pair series,
// 100ms apart, values cycling over a prime so count/min/max/sum pin content.
// Half go through Write, half through WriteBatch, so both WAL record shapes
// are exercised.
func writePersistPoints(t *testing.T, db *DB, n, offset int) {
	t.Helper()
	batch := make([]Point, 0, 16)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if applied, err := db.WriteBatch(batch); err != nil || applied != len(batch) {
			t.Fatalf("WriteBatch applied %d/%d: %v", applied, len(batch), err)
		}
		batch = batch[:0]
	}
	for i := offset; i < offset+n; i++ {
		city := "Auckland"
		if i%2 == 1 {
			city = "Wellington"
		}
		p := Point{
			Name: "latency",
			Tags: []Tag{
				{Key: "src_city", Value: city},
				{Key: "dst_city", Value: "Los Angeles"},
			},
			Fields: []Field{{Key: "total_ms", Value: float64(1 + i%997)}},
			Time:   int64(i) * 1e8,
		}
		if i%2 == 0 {
			if err := db.Write(&p); err != nil {
				t.Fatalf("Write: %v", err)
			}
			continue
		}
		batch = append(batch, p)
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
}

// fullQuery runs the exact-aggregate dashboard query over every point the
// tests write, at the given resolution.
func fullQuery(t *testing.T, db *DB, n int, resolution int64) []SeriesResult {
	t.Helper()
	end := (int64(n)*1e8 + 10e9 - 1) / 10e9 * 10e9
	res, err := db.Execute(Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: end, Window: 10e9, GroupBy: "src_city",
		Resolution: resolution,
		Aggs:       []AggKind{AggCount, AggMin, AggMax, AggSum, AggMean},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

// stripTier zeroes the Tier marker so tier-served and raw-served results
// can be compared for value equality.
func stripTier(res []SeriesResult) []SeriesResult {
	out := make([]SeriesResult, len(res))
	copy(out, res)
	for i := range out {
		out[i].Tier = 0
	}
	return out
}

// crashDB simulates kill -9: background goroutines stop, the WAL is
// abandoned as it stands — nothing flushes its user-space buffer, so
// buffered bytes are lost like a dead process's heap — and the directory
// lock is dropped (flock dies with the process). None of the orderly Close
// work (final flush/fsync) happens.
func crashDB(db *DB) {
	pr := db.persist
	db.closed.Store(true)
	close(pr.stop)
	pr.wg.Wait()
	syscall.Flock(int(pr.lock.Fd()), syscall.LOCK_UN)
	pr.lock.Close()
}

// walSegments lists the WAL segment indexes under a data directory.
func walSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := walFormat().Segments(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// walSegPath names one WAL segment file under a data directory.
func walSegPath(dir string, seg uint64) string {
	return walFormat().SegmentPath(filepath.Join(dir, walDirName), seg)
}

func TestPersistRoundTripRebuildsTiers(t *testing.T) {
	dir := t.TempDir()
	const n = 4000
	opts := Options{Rollups: DefaultRollups(), Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, 0)
	wantRaw := fullQuery(t, db, n, ResolutionRaw)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if !ps.Enabled || ps.WALReplayedPoints != n || ps.RestoredPoints != 0 {
		t.Fatalf("replay stats = %+v, want %d WAL-replayed, 0 restored", ps, n)
	}
	if ps.ReplayTornTail {
		t.Fatal("clean close reported a torn tail")
	}
	if got := fullQuery(t, db2, n, ResolutionRaw); !reflect.DeepEqual(got, wantRaw) {
		t.Fatalf("raw query diverged after restart:\n got %+v\nwant %+v", got, wantRaw)
	}
	// The rollup tiers were rebuilt by replay: a tier-served query must
	// agree with raw on the exact aggregates.
	tier := fullQuery(t, db2, n, ResolutionAuto)
	if len(tier) == 0 || tier[0].Tier == 0 {
		t.Fatalf("query not tier-served after restart: %+v", tier)
	}
	if !reflect.DeepEqual(stripTier(tier), stripTier(wantRaw)) {
		t.Fatal("tier-served query diverged from raw after restart")
	}
}

func TestPersistCheckpointRestoreAndTruncate(t *testing.T) {
	dir := t.TempDir()
	const n = 3000
	opts := Options{
		Rollups: DefaultRollups(),
		Persist: &PersistOptions{Dir: dir, Fsync: FsyncOff, CheckpointEvery: -1,
			MaxSegmentBytes: 64 << 10}, // force several segments
	}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, 0)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if info.Points != n {
		t.Fatalf("checkpoint dumped %d points, want %d", info.Points, n)
	}
	if info.SegmentsRemoved == 0 {
		t.Fatal("checkpoint removed no WAL segments despite 64KiB segment cap")
	}
	for _, s := range walSegments(t, dir) {
		if s < info.WALSegment {
			t.Fatalf("segment %d survived truncation below checkpoint %d", s, info.WALSegment)
		}
	}
	// Writes after the checkpoint land in the replayed tail.
	writePersistPoints(t, db, n, n)
	wantRaw := fullQuery(t, db, 2*n, ResolutionRaw)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if ps.RestoredPoints != n || ps.WALReplayedPoints != n {
		t.Fatalf("recovery = %d restored + %d replayed, want %d + %d",
			ps.RestoredPoints, ps.WALReplayedPoints, n, n)
	}
	if got := fullQuery(t, db2, 2*n, ResolutionRaw); !reflect.DeepEqual(got, wantRaw) {
		t.Fatal("checkpoint + WAL-tail recovery diverged from pre-restart state")
	}
	tier := fullQuery(t, db2, 2*n, ResolutionAuto)
	if len(tier) == 0 || tier[0].Tier == 0 {
		t.Fatal("query not tier-served after checkpointed restart")
	}
	if !reflect.DeepEqual(stripTier(tier), stripTier(wantRaw)) {
		t.Fatal("tier-served query diverged from raw after checkpointed restart")
	}
}

// TestPersistUnrestorableIdentifierRefused pins ROADMAP 5d: MarshalLine
// writes a raw newline as is, so a tag value holding one split its record in
// two in the next checkpoint and every later open failed "checkpoint …
// corrupt" — one unauthenticated federation probe could do that to an
// aggregator. Write and WriteBatch now refuse such identifiers before they
// are logged or stored (Ref too: TestRefValidation), and the directory
// reopens.
func TestPersistUnrestorableIdentifierRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	writePersistPoints(t, db, n, 0)
	bad := Point{Name: "latency", Tags: []Tag{{Key: "src_city", Value: "Auck\nland"}},
		Fields: []Field{{Key: "total_ms", Value: 1}}, Time: 1}
	if err := db.Write(&bad); !errors.Is(err, ErrBadRef) {
		t.Errorf("Write newline tag value: got %v, want ErrBadRef", err)
	}
	good := Point{Name: "latency", Fields: []Field{{Key: "total_ms", Value: 1}}, Time: 2}
	badField := Point{Name: "latency", Fields: []Field{{Key: "total\nms", Value: 1}}, Time: 2}
	if applied, err := db.WriteBatch([]Point{good, badField}); applied != 0 || !errors.Is(err, ErrBadRef) {
		t.Errorf("WriteBatch newline field key: got (%d, %v), want (0, ErrBadRef)", applied, err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if ps := db2.PersistStats(); ps.RestoredPoints != n {
		t.Fatalf("restored %d points, want %d", ps.RestoredPoints, n)
	}
}

// TestPersistOverlongPointCheckpoints: Write, WriteBatch, POST /write and
// the federation wire all take a point whose line form is over the line
// reader's 1 MiB bound. A line-protocol checkpoint holding one made every
// later open fail ("bufio.Scanner: token too long"); a record checkpoint
// has no such bound below the WAL's own.
func TestPersistOverlongPointCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	writePersistPoints(t, db, n, 0)
	city := strings.Repeat("Auckland", 256<<10) // 2 MiB
	big := Point{Name: "latency", Tags: []Tag{{Key: "src_city", Value: city}},
		Fields: []Field{{Key: "total_ms", Value: 7}}, Time: 5e8}
	if err := db.Write(&big); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen after checkpointing a 2 MiB tag value: %v", err)
	}
	defer db2.Close()
	if ps := db2.PersistStats(); ps.RestoredPoints != n+1 {
		t.Fatalf("restored %d points, want %d", ps.RestoredPoints, n+1)
	}
	if vals := db2.TagValues("src_city", 0, 1e9); !slices.Contains(vals, city) {
		t.Fatalf("the 2 MiB tag value did not come back: %d values", len(vals))
	}
}

// TestCheckpointSkipsRefusedPoint: a checkpoint point the write path
// refuses is skipped and counted exactly as a WAL point is (see
// TestReplaySkipsDuplicateFieldPoint), not a reason to fail every open.
func TestCheckpointSkipsRefusedPoint(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, ckptDirName)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	mk := func(tm int64, fields ...Field) Point {
		return Point{Name: "m", Tags: []Tag{{Key: "a", Value: "b"}}, Fields: fields, Time: tm}
	}
	var enc RecordEncoder
	rec := enc.AppendRecord(nil, []Point{
		mk(100, Field{Key: "x", Value: 1}),
		mk(150, Field{Key: "x", Value: 1}, Field{Key: "x", Value: 2}),
		{Name: "m", Tags: []Tag{{Key: "a", Value: "new\nline"}}, Fields: []Field{{Key: "x", Value: 5}}, Time: 170},
		mk(200, Field{Key: "x", Value: 3}),
	})
	if err := ckptFormat().WriteSegment(ckptDir, 1, [][]byte{rec}); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(Options{Persist: persistOpts(dir, FsyncOff)})
	if err != nil {
		t.Fatalf("open with refused points in the checkpoint: %v", err)
	}
	defer db.Close()
	if st := db.PersistStats(); st.RestoredPoints != 2 || st.WALReplaySkipped != 2 {
		t.Fatalf("restored %d points, skipped %d; want 2, 2", st.RestoredPoints, st.WALReplaySkipped)
	}
	checkAligned(t, db)
}

// TestRecordChunkSplitsAtBound: a dump chunk bigger than ckptRecordBytes
// becomes several records, each ending at the first point past the bound
// and each decoding stand-alone; together they hold the chunk's points in
// order.
func TestRecordChunkSplitsAtBound(t *testing.T) {
	encode := recordChunk()
	var pieces [][]byte
	var want []Point
	cities := [][]Tag{{{Key: "src_city", Value: "Auckland"}}, {{Key: "src_city", Value: "Tokyo"}}}
	for i := 0; len(pieces) < 3; i++ {
		p := Point{Name: "latency", Tags: cities[i%2], Time: int64(i) * 1e6,
			Fields: []Field{{Key: "total_ms", Value: float64(i) * 1.37}}}
		want = append(want, p)
		pieces = encode(pieces, &p)
	}
	got := 0
	for i, rec := range pieces {
		if i < len(pieces)-1 && (len(rec) < ckptRecordBytes || len(rec) > ckptRecordBytes+64) {
			t.Fatalf("record %d is %d bytes, want the bound %d plus at most one point", i, len(rec), ckptRecordBytes)
		}
		err := DecodeRecord(rec, func(p *Point) error {
			if !samePoint(p, &want[got]) {
				return fmt.Errorf("point %d decoded as %+v, want %+v", got, *p, want[got])
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if got != len(want) {
		t.Fatalf("decoded %d points, want %d", got, len(want))
	}
}

// TestCheckpointCorruptFailsOpen: a checkpoint is installed by rename, so
// a frame that does not check out is corruption, never a tear to skip —
// open fails and names the file.
func TestCheckpointCorruptFailsOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, 100, 0)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := ckptFormat().SegmentPath(filepath.Join(dir, ckptDirName), info.WALSegment)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(opts); err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Fatalf("open over a truncated checkpoint: %v, want an error naming %s", err, filepath.Base(path))
	}
}

func TestPersistCrashRecoveryOracle(t *testing.T) {
	// The acceptance shape: sustained ingest, a checkpoint mid-stream, a
	// hard crash (no orderly shutdown), restart — everything the oracle
	// snapshot saw must be queryable, bit-equal, with tiers equivalent.
	dir := t.TempDir()
	const n = 2500
	opts := Options{Rollups: DefaultRollups(), Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, 0)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, n)
	var oracle bytes.Buffer
	oraclePts, err := db.Snapshot(&oracle)
	if err != nil || oraclePts != 2*n {
		t.Fatalf("oracle snapshot: %d points, err %v", oraclePts, err)
	}
	wantRaw := fullQuery(t, db, 2*n, ResolutionRaw)
	crashDB(db)

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if ps.RestoredPoints+ps.WALReplayedPoints != 2*n {
		t.Fatalf("recovered %d+%d points, want %d", ps.RestoredPoints, ps.WALReplayedPoints, 2*n)
	}
	if got := fullQuery(t, db2, 2*n, ResolutionRaw); !reflect.DeepEqual(got, wantRaw) {
		t.Fatal("post-crash query diverged from the pre-kill oracle")
	}
	tier := fullQuery(t, db2, 2*n, ResolutionAuto)
	if !reflect.DeepEqual(stripTier(tier), stripTier(wantRaw)) {
		t.Fatal("post-crash tier-served query diverged from raw")
	}
	var recovered bytes.Buffer
	if pts, err := db2.Snapshot(&recovered); err != nil || pts != 2*n {
		t.Fatalf("recovered snapshot: %d points, err %v", pts, err)
	}
}

func TestPersistTornTailTolerated(t *testing.T) {
	for _, tear := range []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"truncated-mid-record", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			const n = 200
			opts := Options{Persist: persistOpts(dir, FsyncOff)}
			db, err := OpenDB(opts)
			if err != nil {
				t.Fatal(err)
			}
			writePersistPoints(t, db, n, 0)
			crashDB(db)

			segs := walSegments(t, dir)
			if len(segs) == 0 {
				t.Fatal("no WAL segments")
			}
			tear.mut(t, walSegPath(dir, segs[len(segs)-1]))

			db2, err := OpenDB(opts)
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			ps := db2.PersistStats()
			if !ps.ReplayTornTail {
				t.Fatal("torn tail not reported")
			}
			// Everything before the tear survives; only the final record
			// (up to one WriteBatch) is lost.
			written, _ := db2.WriteStats()
			if written == 0 || written >= n {
				t.Fatalf("replayed %d points, want within (0, %d)", written, n)
			}
			if written < n-16-1 {
				t.Fatalf("replayed %d points — tear may only cost the final record (≥ %d)", written, n-16-1)
			}
			// The tear stays tolerated once the torn segment is no longer
			// the final one: a restart before the first checkpoint used
			// to fail with ErrWALCorrupt.
			writePersistPoints(t, db2, 10, n)
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			db3, err := OpenDB(opts)
			if err != nil {
				t.Fatalf("second reopen, torn segment now mid-stream: %v", err)
			}
			defer db3.Close()
			if again, _ := db3.WriteStats(); again != written+10 {
				t.Fatalf("second reopen recovered %d points, want %d", again, written+10)
			}
		})
	}
}

func TestPersistCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: &PersistOptions{Dir: dir, Fsync: FsyncOff,
		CheckpointEvery: -1, MaxSegmentBytes: 16 << 10}}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, 2000, 0)
	crashDB(db)

	segs := walSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v", segs)
	}
	first := walSegPath(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(opts); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open over corrupt middle segment: err %v, want ErrWALCorrupt", err)
	}
}

func TestPersistMidCheckpointCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	const n = 500
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, 0)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, n, n)
	crashDB(db)

	// A crash mid-checkpoint leaves a temp file (never renamed) and can
	// leave stale pre-checkpoint artifacts. None of them may confuse
	// recovery: the temp is deleted, the garbage "old" checkpoint and
	// segment are below the newest checkpoint and skipped.
	ckptDir := filepath.Join(dir, ckptDirName)
	if err := os.WriteFile(ckptFormat().SegmentPath(ckptDir, 99)+".tmp",
		[]byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptFormat().SegmentPath(ckptDir, 0),
		[]byte("not line protocol at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walSegPath(dir, 0),
		[]byte("stale segment garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if ps.RestoredPoints != n || ps.WALReplayedPoints != n {
		t.Fatalf("recovery = %d restored + %d replayed, want %d + %d",
			ps.RestoredPoints, ps.WALReplayedPoints, n, n)
	}
	if tmps, _ := filepath.Glob(filepath.Join(ckptDir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("stale temp checkpoints survived open: %v", tmps)
	}
}

func TestPersistLockfileRefusesDoubleOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(opts); !errors.Is(err, ErrDirLocked) {
		t.Fatalf("double open: err %v, want ErrDirLocked", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db2.Close()
}

func TestPersistFsyncAlwaysGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncAlways)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := Point{
					Name:   "latency",
					Tags:   []Tag{{Key: "src_city", Value: fmt.Sprintf("City%d", w)}},
					Fields: []Field{{Key: "total_ms", Value: float64(i)}},
					Time:   int64(w*per+i) * 1e6,
				}
				if err := db.Write(&p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ps := db.PersistStats()
	if ps.WALFsyncs == 0 || ps.WALAppends != writers*per {
		t.Fatalf("fsyncs=%d appends=%d, want >0 and %d", ps.WALFsyncs, ps.WALAppends, writers*per)
	}
	// Under FsyncAlways every completed write is durable before it
	// returns: even a raw crash loses nothing.
	crashDB(db)
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if written, _ := db2.WriteStats(); written != writers*per {
		t.Fatalf("recovered %d points after crash, want %d (fsync=always)", written, writers*per)
	}
}

func TestPersistConcurrentCheckpointNoLossNoDup(t *testing.T) {
	// The checkpoint cut must be exact under concurrent ingest: after a
	// crash, restored + replayed points must equal exactly the writes that
	// completed — a lost point breaks durability, a duplicated one breaks
	// the cut (it would be both in the checkpoint and replayed).
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batchLen = 4, 60, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Point, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = Point{
						Name:   "latency",
						Tags:   []Tag{{Key: "src_city", Value: fmt.Sprintf("City%d", w)}},
						Fields: []Field{{Key: "total_ms", Value: float64(i*batchLen + j)}},
						Time:   int64(w)*1e12 + int64(i*batchLen+j)*1e6,
					}
				}
				if applied, err := db.WriteBatch(batch); err != nil || applied != batchLen {
					t.Errorf("WriteBatch applied %d: %v", applied, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	const total = writers * batches * batchLen
	if written, _ := db.WriteStats(); written != total {
		t.Fatalf("pre-crash written=%d, want %d", written, total)
	}
	crashDB(db)

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if got := ps.RestoredPoints + ps.WALReplayedPoints; got != total {
		t.Fatalf("recovered %d (%d restored + %d replayed), want exactly %d",
			got, ps.RestoredPoints, ps.WALReplayedPoints, total)
	}
}

func TestPersistWALAppendFailureFailsWriteThenSelfHeals(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(Options{Persist: persistOpts(dir, FsyncOff)})
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, 10, 0)
	// Make every write to the current segment fail: the next write must
	// surface the error and must NOT become queryable — otherwise memory
	// runs ahead of what a restart can recover.
	db.persist.wal.log.InjectWriteFault(0)

	p := Point{Name: "latency", Fields: []Field{{Key: "total_ms", Value: 1}}, Time: 1e15}
	if err := db.Write(&p); err == nil {
		t.Fatal("Write succeeded despite WAL append failure")
	}
	written, _ := db.WriteStats()
	if written != 10 {
		t.Fatalf("failed write reached memory: written=%d, want 10", written)
	}
	if ps := db.PersistStats(); ps.WALAppendErrors == 0 {
		t.Fatal("append errors not counted")
	}
	// The failure poisoned the segment; the next write must rotate onto a
	// fresh one and succeed — a transient disk error (ENOSPC later
	// cleared) must not wedge the WAL until restart.
	if applied, err := db.WriteBatch([]Point{p}); err != nil || applied != 1 {
		t.Fatalf("write after WAL failure did not self-heal: applied=%d err=%v", applied, err)
	}
	if written, _ := db.WriteStats(); written != 11 {
		t.Fatalf("written=%d after heal, want 11", written)
	}
	// And the healed segment replays: the 10 pre-failure points plus the
	// healed one survive a crash (the poisoned segment's tail is torn).
	crashDB(db)
	db2, err := OpenDB(Options{Persist: persistOpts(dir, FsyncOff)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if written, _ := db2.WriteStats(); written != 11 {
		t.Fatalf("recovered %d points after heal+crash, want 11", written)
	}
}

func TestPersistCheckpointPreservesRetentionSliver(t *testing.T) {
	// Retention keeps whole shards, so a shard straddling the horizon
	// holds points individually older than it. The checkpoint dump must
	// come back shard-time ascending: replayed old→new those sliver
	// points are stored before the horizon advances past them. Unordered
	// (stripe-major) dumps silently re-drop them at restore time.
	dir := t.TempDir()
	opts := Options{ShardDuration: 10e9, Retention: 30e9,
		Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	write := func(city string, ts int64) {
		p := Point{Name: "latency",
			Tags:   []Tag{{Key: "src_city", Value: city}},
			Fields: []Field{{Key: "total_ms", Value: 1}}, Time: ts}
		if err := db.Write(&p); err != nil {
			t.Fatal(err)
		}
	}
	// Slivers: t=5e9 lives in shard [0,10e9); with maxT=39e9 the horizon
	// is 9e9, so those points are older than the horizon but their shard
	// survives. 16 cities put slivers and newer points in every stripe: a
	// stripe-major dump replays some stripe's 39e9 point before a later
	// stripe's sliver, advancing the horizon past it.
	for i := 0; i < 16; i++ {
		write(fmt.Sprintf("City%d", i), 5e9)
	}
	for i := 0; i < 16; i++ {
		write(fmt.Sprintf("City%d", i), 39e9)
	}
	if written, dropped := db.WriteStats(); written != 32 || dropped != 0 {
		t.Fatalf("pre-checkpoint: written=%d dropped=%d, want 32/0", written, dropped)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if written, dropped := db2.WriteStats(); written != 32 || dropped != 0 {
		t.Fatalf("restore kept %d points (dropped %d), want all 32: slivers lost to dump order", written, dropped)
	}
}

func TestPersistTornMidStreamAfterIOErrorTolerated(t *testing.T) {
	// An error-rotation abandons a segment whose tail holds a REAL partial
	// frame on disk. Once later segments exist it is no longer the final
	// segment, so without the tear acknowledgement the next open would
	// refuse with ErrWALCorrupt — turning a transient disk-full event into
	// a permanent startup failure.
	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, 10, 0)
	// Let 5 more bytes through to the current segment's file, then fail:
	// the next record is torn mid-frame on disk.
	db.persist.wal.log.InjectWriteFault(5)

	p := Point{Name: "latency", Fields: []Field{{Key: "total_ms", Value: 1}}, Time: 1e15}
	if err := db.Write(&p); err == nil {
		t.Fatal("Write succeeded despite injected disk failure")
	}
	// Self-heal onto a fresh segment (which must carry the tear marker),
	// then keep writing.
	writePersistPoints(t, db, 10, 100)
	crashDB(db)

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen after error-rotation: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if !ps.ReplayTornTail {
		t.Fatal("acknowledged tear not reported")
	}
	if written, _ := db2.WriteStats(); written != 20 {
		t.Fatalf("recovered %d points, want 20 (10 pre-tear + 10 healed)", written)
	}
}

func TestPersistOversizeBatchSplits(t *testing.T) {
	old := maxRecordBytes
	maxRecordBytes = 4096
	defer func() { maxRecordBytes = old }()

	dir := t.TempDir()
	opts := Options{Persist: persistOpts(dir, FsyncOff)}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	// One batch far beyond the frame limit: must be split across several
	// records, not written as a frame replay would reject.
	writePersistPoints(t, db, 2000, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	ps := db2.PersistStats()
	if ps.WALReplayedPoints != 2000 {
		t.Fatalf("replayed %d of 2000 points written through oversized batches", ps.WALReplayedPoints)
	}
}

func TestPersistCloseIdempotent(t *testing.T) {
	db, err := OpenDB(Options{Persist: persistOpts(t.TempDir(), FsyncOff)})
	if err != nil {
		t.Fatal(err)
	}
	writePersistPoints(t, db, 10, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close (defer + explicit, or two racing callers) must be a
	// no-op, not a close-of-closed-channel panic.
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpenPanicsOnPersist(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Open(Options{Persist}) did not panic")
		}
	}()
	Open(Options{Persist: persistOpts(t.TempDir(), FsyncOff)})
}

// TestReplaySkipsDuplicateFieldPoint: binaries before the duplicate-field
// check could log a point with a repeated field key. Replay must leave that
// point out and count it — not fail every later open on a deterministic
// error — and recover its neighbours.
func TestReplaySkipsDuplicateFieldPoint(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(walDir, 1, 0, FsyncOff, false)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tm int64, fields ...Field) Point {
		return Point{Name: "m", Tags: []Tag{{Key: "a", Value: "b"}}, Fields: fields, Time: tm}
	}
	// The encoder logs what it is handed; only the write path validates.
	if err := w.AppendPoints([]Point{
		mk(100, Field{Key: "x", Value: 1}),
		mk(150, Field{Key: "x", Value: 1}, Field{Key: "x", Value: 2}),
		mk(200, Field{Key: "x", Value: 3}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.log.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(Options{Persist: persistOpts(dir, FsyncOff)})
	if err != nil {
		t.Fatalf("open with a duplicate-field point in the WAL: %v", err)
	}
	defer db.Close()
	st := db.PersistStats()
	if st.WALReplayedPoints != 2 || st.WALReplaySkipped != 1 || st.WALReplayedRecords != 1 {
		t.Fatalf("replayed %d points, skipped %d, %d records; want 2, 1, 1",
			st.WALReplayedPoints, st.WALReplaySkipped, st.WALReplayedRecords)
	}
	checkAligned(t, db)
	res, err := db.Execute(Query{Measurement: "m", Field: "x", Start: 0, End: 1e9,
		Resolution: ResolutionRaw, Aggs: []AggKind{AggCount, AggSum}})
	if err != nil || len(res) != 1 || res[0].Buckets[0].Count != 2 || res[0].Buckets[0].Aggs[AggSum] != 4 {
		t.Fatalf("Execute: %+v, %v", res, err)
	}
}

// TestPersistRotationFailureDoesNotWedge: a segment create that fails
// during rotation (ENOSPC, EMFILE, a stray file tripping O_EXCL) must fail
// the operation that needed it and nothing else. Retiring the old file
// before the new one existed used to retire it twice on the retry; the
// sync cycle then closed it once and got EBADF on the duplicate forever —
// every later write (fsync=always) or flusher tick (interval) failed until
// restart, and so did Close.
func TestPersistRotationFailureDoesNotWedge(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			// One record per segment, so every write after the first needs
			// a rotation; the flusher is left to the test.
			opts := Options{Persist: &PersistOptions{Dir: dir, Fsync: policy,
				FsyncInterval: time.Hour, CheckpointEvery: -1, MaxSegmentBytes: 1}}
			db, err := OpenDB(opts)
			if err != nil {
				t.Fatal(err)
			}
			write := func(i int) error {
				return db.Write(&Point{Name: "latency", Time: int64(i) * 1e6,
					Fields: []Field{{Key: "total_ms", Value: float64(i)}}})
			}
			if err := write(0); err != nil {
				t.Fatal(err)
			}
			blocker := walSegPath(dir, db.PersistStats().WALSegment+1)
			if err := os.WriteFile(blocker, []byte("stray"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := write(1); err == nil {
				t.Fatal("Write succeeded although the next segment could not be created")
			}
			if _, err := db.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded although the next segment could not be created")
			}
			ps := db.PersistStats()
			if ps.WALAppendErrors == 0 || ps.CheckpointErrors != 1 {
				t.Fatalf("failures not counted: %+v", ps)
			}
			if written, _ := db.WriteStats(); written != 1 {
				t.Fatalf("failed write reached memory: written=%d, want 1", written)
			}

			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
			const n = 50
			for i := 2; i < n; i++ {
				if err := write(i); err != nil {
					t.Fatalf("write %d after the blocker was removed: %v", i, err)
				}
			}
			if err := db.persist.wal.log.Sync(); err != nil {
				t.Fatalf("Sync after the blocker was removed: %v", err)
			}
			if db.PersistStats().WALFsyncs == 0 {
				t.Fatal("nothing was made durable after recovery")
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after the blocker was removed: %v", err)
			}
			if err := write(n); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			db2, err := OpenDB(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			ps = db2.PersistStats()
			if ps.RestoredPoints != n-1 || ps.WALReplayedPoints != 1 || ps.ReplayTornTail {
				t.Fatalf("recovered %d checkpointed + %d replayed (torn=%v), want %d + 1",
					ps.RestoredPoints, ps.WALReplayedPoints, ps.ReplayTornTail, n-1)
			}
		})
	}
}

// TestPersistFailedRotationLeavesNoStaleDictionary: a batch that needs a
// segment which cannot be created fails — after its encoding has moved the
// WAL's per-segment dictionary and delta state past points that were never
// written. The old segment is still writable (TestPersistRotationFailure-
// DoesNotWedge), so a later, smaller write that fits must not be appended
// to it against that state: a sample of a shape the reader never saw
// defined made the data dir unopenable, and a sample of a known shape
// would have decoded to a wrong value. The segment size is realistic, so
// unlike the wedge test the retries do NOT need a rotation of their own.
func TestPersistFailedRotationLeavesNoStaleDictionary(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Persist: &PersistOptions{Dir: dir, Fsync: policy,
				FsyncInterval: time.Hour, CheckpointEvery: -1, MaxSegmentBytes: 4096}}
			db, err := OpenDB(opts)
			if err != nil {
				t.Fatal(err)
			}
			point := func(name string, i int) Point {
				return Point{Name: name, Time: int64(i) * 1e6,
					Fields: []Field{{Key: "total_ms", Value: 1.5 * float64(i)}}}
			}
			known := point("latency", 1)
			if err := db.Write(&known); err != nil {
				t.Fatal(err)
			}
			blocker := walSegPath(dir, db.PersistStats().WALSegment+1)
			if err := os.WriteFile(blocker, []byte("stray"), 0o644); err != nil {
				t.Fatal(err)
			}
			// Far more than fits segment 1: defines a new shape and moves
			// the known shape's delta state 2000 samples ahead.
			big := make([]Point, 0, 4000)
			for i := 2; i < 2002; i++ {
				big = append(big, point("latency", i), point("dropped", i))
			}
			if applied, err := db.WriteBatch(big); err == nil || applied != 0 {
				t.Fatalf("WriteBatch applied %d points (err %v) although its segment could not be created", applied, err)
			}
			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
			// All three fit what is left of segment 1.
			want := []Point{known, point("latency", 5000), point("dropped", 5001), point("fresh", 5002)}
			for i := range want[1:] {
				if err := db.Write(&want[1+i]); err != nil {
					t.Fatalf("write %d after the blocker was removed: %v", i, err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			var got []Point
			_, torn, _, err := replayWAL(filepath.Join(dir, walDirName), 0, func(p *Point) error {
				got = append(got, Point{Name: p.Name, Time: p.Time, Fields: slices.Clone(p.Fields)})
				return nil
			})
			if err != nil || torn {
				t.Fatalf("replay: torn=%v err=%v", torn, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed\n%+v\nwant\n%+v", got, want)
			}
			db2, err := OpenDB(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			if ps := db2.PersistStats(); ps.WALReplayedPoints != uint64(len(want)) || ps.ReplayTornTail {
				t.Fatalf("reopen replayed %d points (torn=%v), want %d", ps.WALReplayedPoints, ps.ReplayTornTail, len(want))
			}
		})
	}
}

// storeView is everything a reader can see of a store: raw- and
// tier-served queries, tag values, the series count and the snapshot.
type storeView struct {
	raw, tier []SeriesResult
	loss      []SeriesResult
	cities    []string
	series    int
	snap      string
}

func viewStore(t *testing.T, db *DB, n int) storeView {
	t.Helper()
	v := storeView{
		raw:    fullQuery(t, db, n, ResolutionRaw),
		tier:   fullQuery(t, db, n, ResolutionAuto),
		cities: db.TagValues("src_city", 0, 1<<62),
		series: db.SeriesCount(),
	}
	if len(v.tier) == 0 || v.tier[0].Tier == 0 {
		t.Fatalf("query not tier-served: %+v", v.tier)
	}
	var err error
	v.loss, err = db.Execute(Query{Measurement: "latency", Field: "loss", Start: 0, End: 1 << 62,
		GroupBy: "src_city", Aggs: []AggKind{AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if _, err := db.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	v.snap = b.String()
	return v
}

// A write interns a never-seen shape before its WAL append. When the append
// fails, that shape must stay invisible — to queries at either resolution,
// TagValues, SeriesCount and Snapshot — and a restart must restore exactly
// the pre-failure store.
func TestWALFailureOnNewShapeLeavesStoreUnchanged(t *testing.T) {
	const n = 200
	fresh := Point{
		Name:   "latency",
		Tags:   []Tag{{Key: "src_city", Value: "Nelson"}, {Key: "dst_city", Value: "Los Angeles"}},
		Fields: []Field{{Key: "total_ms", Value: 7}, {Key: "loss", Value: 1}},
		Time:   5e9,
	}
	known := Point{
		Name:   "latency",
		Tags:   []Tag{{Key: "src_city", Value: "Auckland"}, {Key: "dst_city", Value: "Los Angeles"}},
		Fields: []Field{{Key: "total_ms", Value: 3}},
		Time:   6e9,
	}
	for _, tc := range []struct {
		name  string
		write func(db *DB) error
	}{
		{"Write", func(db *DB) error { p := fresh; return db.Write(&p) }},
		{"WriteBatch", func(db *DB) error {
			_, err := db.WriteBatch([]Point{known, fresh})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Rollups: DefaultRollups(), Persist: persistOpts(dir, FsyncOff)}
			db, err := OpenDB(opts)
			if err != nil {
				t.Fatal(err)
			}
			writePersistPoints(t, db, n, 0)
			want := viewStore(t, db, n)

			db.persist.wal.log.InjectWriteFault(0)
			if err := tc.write(db); err == nil {
				t.Fatal("write succeeded despite WAL append failure")
			}
			if d := db.dir.Load(); len(d.idents) != 3 || d.idents[2].tags[1].Value != "Nelson" {
				t.Fatal("the new shape was not interned ahead of the failed append")
			}
			if got := viewStore(t, db, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("failed write changed the store:\n got %+v\nwant %+v", got, want)
			}
			db.Close() // may report the poisoned segment's flush; the reopen is the check
			db2, err := OpenDB(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			if got := viewStore(t, db2, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened store differs from the pre-failure one:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
