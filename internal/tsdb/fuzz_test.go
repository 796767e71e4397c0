package tsdb

// Native fuzz targets for the durability decode paths: a WAL segment is
// the one file format the database must read back after arbitrary crash
// interleavings, so the reader's contract under garbage is absolute —
// never panic, never allocate unboundedly, never apply a record that did
// not survive its CRC ("over-apply"). Corpus regeneration: RURU_UPDATE=1
// (see docs/TESTING.md).

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ruru/internal/seglog"
)

// fuzzSegmentSeeds builds WAL segment images: a real multi-record segment
// produced by the writer, plus truncated/corrupted variants and frames
// with hostile length fields.
func fuzzSegmentSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "ruru-walfuzz-")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	w, err := openWAL(dir, 1, 1<<20, FsyncOff, false)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pts := []Point{
			{Name: "latency",
				Tags:   []Tag{{Key: "src_city", Value: "Auckland"}, {Key: "dst_city", Value: "Los Angeles"}},
				Fields: []Field{{Key: "total_ms", Value: 145.5 + float64(i)}},
				Time:   int64(i) * 1e9},
			{Name: "latency",
				Tags:   []Tag{{Key: "src_city", Value: "Sydney"}, {Key: "dst_city", Value: "Tokyo"}},
				Fields: []Field{{Key: "total_ms", Value: 99.25}, {Key: "internal_ms", Value: 10}},
				Time:   int64(i)*1e9 + 5e8},
		}
		if err := w.AppendPoints(pts); err != nil {
			tb.Fatal(err)
		}
	}
	// Segment 2: a frame whose CRC is valid but whose payload is not a
	// legal entry stream (decode-layer corruption behind a good checksum).
	if _, err := w.log.Rotate(); err != nil {
		tb.Fatal(err)
	}
	junk := []byte{walEntrySample, 0x80, 0x80, 0x80} // dangling uvarint
	if err := w.log.Append(func(buf []byte) []byte { return append(buf, junk...) }); err != nil {
		tb.Fatal(err)
	}
	if err := w.log.Close(); err != nil {
		tb.Fatal(err)
	}
	valid, err := os.ReadFile(walFormat().SegmentPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	badEntries, err := os.ReadFile(walFormat().SegmentPath(dir, 2))
	if err != nil {
		tb.Fatal(err)
	}

	seeds := [][]byte{valid}
	seeds = append(seeds, valid[:len(valid)-3])      // torn tail
	seeds = append(seeds, valid[:seglog.MagicBytes]) // header only
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0xff // CRC mismatch mid-file
	seeds = append(seeds, flip)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	seeds = append(seeds, badMagic)
	// Hostile frame header: implausible record length after the magic.
	hostile := append([]byte(nil), valid[:seglog.MagicBytes]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xffffff00)
	seeds = append(seeds, append(hostile, 0, 0, 0, 0))
	return append(seeds, badEntries)
}

// fuzzScratch is the one segment file every fuzz exec rewrites: fuzz
// workers are separate processes, so a per-process path is race-free, and
// skipping a fresh TempDir per exec keeps the fuzzer's throughput at
// parser-like levels instead of filesystem-bound ones.
var fuzzScratch string

func fuzzScratchPath() string {
	if fuzzScratch == "" {
		dir, err := os.MkdirTemp("", "ruru-walfuzz-scratch-")
		if err != nil {
			panic(err)
		}
		fuzzScratch = walFormat().SegmentPath(dir, 1)
	}
	return fuzzScratch
}

// FuzzWALReplay feeds arbitrary bytes to the segment scan + entry decoder
// exactly the way open-time recovery does.
func FuzzWALReplay(f *testing.F) {
	for _, s := range fuzzSegmentSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Shrink the frame-size bound so hostile length fields cannot make
		// the reader stage hundreds of MB per exec; the reader must treat
		// anything above the bound as a tear, whatever the bound is.
		old := maxRecordBytes
		maxRecordBytes = 1 << 20
		defer func() { maxRecordBytes = old }()

		path := fuzzScratchPath()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		run := func(final bool) (applied int, records int, err error) {
			records, err = replaySegment(path, final, func(*Point) error {
				applied++
				return nil
			})
			return applied, records, err
		}
		appliedFinal, recsFinal, errFinal := run(true)
		appliedMid, recsMid, errMid := run(false)
		// The valid prefix is a property of the bytes, not of the
		// final-segment flag: both passes must apply identical work, only
		// the error classification may differ (ErrWALTorn vs ErrWALCorrupt).
		if appliedFinal != appliedMid || recsFinal != recsMid {
			t.Fatalf("replay not deterministic: final=(%d,%d,%v) mid=(%d,%d,%v)",
				appliedFinal, recsFinal, errFinal, appliedMid, recsMid, errMid)
		}
		if (errFinal == nil) != (errMid == nil) {
			t.Fatalf("error presence differs: final=%v mid=%v", errFinal, errMid)
		}
	})
}

// TestRecordCodecRoundTrip pins the exported self-contained record codec
// (the federation wire format) against the WAL entry encoding it reuses.
func TestRecordCodecRoundTrip(t *testing.T) {
	var enc RecordEncoder
	mk := func(n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Name: "latency",
				Tags: []Tag{
					{Key: "src_city", Value: "City" + strconv.Itoa(i%3)},
					{Key: "dst_city", Value: "Los Angeles"},
				},
				Fields: []Field{
					{Key: "total_ms", Value: 100.5 + float64(i)},
					{Key: "internal_ms", Value: float64(i) / 7},
				},
				Time: int64(i) * 1e7,
			}
		}
		return pts
	}
	// Two records from one encoder must each decode stand-alone.
	for round := 0; round < 2; round++ {
		pts := mk(100 + round)
		rec := enc.AppendRecord(nil, pts)
		var got []Point
		err := DecodeRecord(rec, func(p *Point) error {
			got = append(got, Point{
				Name:   p.Name,
				Tags:   append([]Tag(nil), p.Tags...),
				Fields: append([]Field(nil), p.Fields...),
				Time:   p.Time,
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("round %d: decoded %d points, want %d", round, len(got), len(pts))
		}
		for i := range pts {
			want, have := pts[i], got[i]
			if want.Name != have.Name || want.Time != have.Time ||
				len(want.Tags) != len(have.Tags) || len(want.Fields) != len(have.Fields) {
				t.Fatalf("round %d point %d mismatch:\nwant %+v\ngot  %+v", round, i, want, have)
			}
			for j := range want.Tags {
				if want.Tags[j] != have.Tags[j] {
					t.Fatalf("point %d tag %d: %+v != %+v", i, j, want.Tags[j], have.Tags[j])
				}
			}
			for j := range want.Fields {
				if want.Fields[j] != have.Fields[j] {
					t.Fatalf("point %d field %d: %+v != %+v", i, j, want.Fields[j], have.Fields[j])
				}
			}
		}
	}
}

// TestWriteWALFuzzCorpus regenerates testdata/fuzz/FuzzWALReplay.
// Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteWALFuzzCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSegmentSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
