package tsdb

// The golden data directory: a checkpoint plus a WAL tail written by the
// binary of the commit BEFORE Write/WriteBatch moved onto the interned-ref
// apply path (testdata/parent_datadir, regenerated only with
// RURU_UPDATE_PARENT_DATADIR=1 on a checkout of that commit — this file
// compiles there unchanged; regenerating at HEAD would only pin HEAD
// against itself). It pins the two durability promises of that move: a
// data directory an older binary left behind restores to the same answers,
// and Write/WriteBatch still log byte-identical WAL records.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const goldenDataDir = "testdata/parent_datadir"

func goldenOpts(dir string) Options {
	return Options{
		ShardDuration: 10e9,
		Rollups:       []RollupTier{{Width: 1e9}, {Width: 10e9}},
		Persist:       persistOpts(dir, FsyncOff),
	}
}

// goldenHead and goldenTail are the two halves of the fixed write sequence:
// head lands in the checkpoint, tail in the WAL segment after it. The tail
// ends with a multi-field, multi-shape batch so the segment carries more
// than one dictionary entry.
func goldenHead(t *testing.T, db *DB) { writePersistPoints(t, db, 200, 0) }

func goldenTail(t *testing.T, db *DB) {
	t.Helper()
	writePersistPoints(t, db, 100, 200)
	tags := []Tag{{Key: "peer_city", Value: "Tokyo"}, {Key: "echoer_city", Value: "Sydney"}}
	batch := []Point{
		{Name: "latency", Tags: append([]Tag(nil), tags...), Time: 31e9,
			Fields: []Field{{Key: "total_ms", Value: 40}, {Key: "internal_ms", Value: 4}}},
		{Name: "latency", Tags: append([]Tag(nil), tags...), Time: 32e9,
			Fields: []Field{{Key: "internal_ms", Value: 5}, {Key: "total_ms", Value: 50}}},
		{Name: "latency", Tags: append([]Tag(nil), tags...), Time: 33e9,
			Fields: []Field{{Key: "total_ms", Value: 60}}},
	}
	if n, err := db.WriteBatch(batch); n != len(batch) || err != nil {
		t.Fatalf("WriteBatch: (%d, %v)", n, err)
	}
}

const goldenHeadPoints, goldenTailPoints = 200, 103

// writeGoldenSequence runs head → checkpoint → tail → close in dir and
// returns the path of the WAL segment holding the tail.
func writeGoldenSequence(t *testing.T, dir string) string {
	t.Helper()
	db, err := OpenDB(goldenOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	goldenHead(t, db)
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	goldenTail(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return walSegPath(dir, info.WALSegment)
}

// copyDataDir copies the checkpoint and WAL files of a data directory.
func copyDataDir(t *testing.T, from, to string) {
	t.Helper()
	for _, sub := range []string{ckptDirName, walDirName} {
		if err := os.MkdirAll(filepath.Join(to, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(from, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(from, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, sub, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWriteGoldenDataDir regenerates testdata/parent_datadir. Run with
// RURU_UPDATE_PARENT_DATADIR=1 on the parent commit; skipped otherwise.
func TestWriteGoldenDataDir(t *testing.T) {
	if os.Getenv("RURU_UPDATE_PARENT_DATADIR") == "" {
		t.Skip("set RURU_UPDATE_PARENT_DATADIR=1 (on the parent commit) to regenerate the golden data directory")
	}
	dir := t.TempDir()
	writeGoldenSequence(t, dir)
	if err := os.RemoveAll(goldenDataDir); err != nil {
		t.Fatal(err)
	}
	copyDataDir(t, dir, goldenDataDir)
}

// TestGoldenDataDirRestores opens a copy of the parent-written directory
// and checks it recovers every point and answers the dashboard query
// exactly like an in-memory DB fed the same sequence.
func TestGoldenDataDirRestores(t *testing.T) {
	dir := t.TempDir()
	copyDataDir(t, goldenDataDir, dir)
	db, err := OpenDB(goldenOpts(dir))
	if err != nil {
		t.Fatalf("open parent-written data directory: %v", err)
	}
	defer db.Close()
	st := db.PersistStats()
	if st.RestoredPoints != goldenHeadPoints || st.WALReplayedPoints != goldenTailPoints {
		t.Fatalf("recovered %d checkpoint + %d WAL points, want %d + %d",
			st.RestoredPoints, st.WALReplayedPoints, goldenHeadPoints, goldenTailPoints)
	}
	checkGoldenAnswers(t, db)
}

// TestGoldenDataDirUpgradesOnCheckpoint: the parent's checkpoint is line
// protocol. The first checkpoint after opening it rewrites everything as
// records, which the next open loads with the same answers — and which the
// parent's line reader refuses rather than reads as empty.
func TestGoldenDataDirUpgradesOnCheckpoint(t *testing.T) {
	dir := t.TempDir()
	copyDataDir(t, goldenDataDir, dir)
	db, err := OpenDB(goldenOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(ckptFormat().SegmentPath(filepath.Join(dir, ckptDirName), info.WALSegment))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ckpt, []byte(ckptFormat().Magic)) {
		t.Fatalf("new checkpoint starts %q, want the magic %q", ckpt[:8], ckptFormat().Magic)
	}
	lineReader := Open(Options{})
	defer lineReader.Close()
	if n, err := lineReader.Restore(bytes.NewReader(ckpt)); n != 0 || err == nil {
		t.Fatalf("line reader on a record checkpoint: %d points, err %v; want a refusal", n, err)
	}
	db, err = OpenDB(goldenOpts(dir))
	if err != nil {
		t.Fatalf("reopen after the upgrading checkpoint: %v", err)
	}
	defer db.Close()
	if st := db.PersistStats(); st.RestoredPoints != goldenHeadPoints+goldenTailPoints || st.WALReplayedPoints != 0 {
		t.Fatalf("recovered %d checkpoint + %d WAL points, want %d + 0",
			st.RestoredPoints, st.WALReplayedPoints, goldenHeadPoints+goldenTailPoints)
	}
	checkGoldenAnswers(t, db)
}

// checkGoldenAnswers requires db to answer the dashboard query exactly like
// an in-memory DB fed the golden sequence.
func checkGoldenAnswers(t *testing.T, db *DB) {
	t.Helper()
	memOpts := goldenOpts("")
	memOpts.Persist = nil
	mirror := Open(memOpts)
	defer mirror.Close()
	goldenHead(t, mirror)
	goldenTail(t, mirror)
	for _, f := range []string{"total_ms", "internal_ms"} {
		for _, resolution := range []int64{ResolutionRaw, ResolutionAuto} {
			q := Query{Measurement: "latency", Field: f, Start: 0, End: 40e9, Window: 10e9,
				GroupBy: "src_city", Resolution: resolution,
				Aggs: []AggKind{AggCount, AggMean, AggP95, AggMin, AggMax, AggSum}}
			want, errW := mirror.Execute(q)
			got, errG := db.Execute(q)
			if errW != nil || errG != nil {
				t.Fatalf("Execute: %v / %v", errW, errG)
			}
			if !resultsEqual(want, got) {
				t.Fatalf("field %s resolution %d differs after restore:\nmirror:   %+v\nrestored: %+v",
					f, resolution, want, got)
			}
		}
	}
}

// TestWriteWALBytesMatchGolden replays the golden sequence on this binary
// and requires the WAL segment behind the checkpoint to equal the
// parent-written one byte for byte: Write/WriteBatch log the Points they
// were handed, whatever path applies them.
func TestWriteWALBytesMatchGolden(t *testing.T) {
	seg := writeGoldenSequence(t, t.TempDir())
	got, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(goldenDataDir, walDirName, filepath.Base(seg)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL segment %s differs from the parent-written golden (%d vs %d bytes)",
			filepath.Base(seg), len(got), len(want))
	}
}
