package tsdb

// Native fuzz targets for the durability decode paths: a WAL segment is
// the one file format the database must read back after arbitrary crash
// interleavings, so the reader's contract under garbage is absolute —
// never panic, never allocate unboundedly, never apply a record that did
// not survive its CRC ("over-apply"). Corpus regeneration: RURU_UPDATE=1
// (see docs/TESTING.md). A checkpoint file goes through the whole open path
// in FuzzCheckpointOpen; line protocol — the parser in front of /write,
// Restore and an older binary's checkpoints — has FuzzParseLine. Both are
// seeded in place.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// fuzzCheckpointSeeds builds checkpoint images: one the writer made (two
// series in one stripe over several shard slots, one with a second field),
// the parent-written line-protocol checkpoint, and truncations of both.
func fuzzCheckpointSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "ruru-ckptfuzz-")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := OpenDB(Options{ShardDuration: 10e9, Stripes: 1, Persist: persistOpts(dir, FsyncOff)})
	if err != nil {
		tb.Fatal(err)
	}
	var pts []Point
	for i := 0; i < 40; i++ {
		p := Point{Name: "latency", Tags: []Tag{{Key: "src_city", Value: "Auckland"}},
			Fields: []Field{{Key: "total_ms", Value: 140 + float64(i%7)}}, Time: int64(i) * 5e8}
		if i%3 == 0 {
			p.Tags = []Tag{{Key: "src_city", Value: "Sydney"}}
			p.Fields = append(p.Fields, Field{Key: "internal_ms", Value: float64(i)})
		}
		pts = append(pts, p)
	}
	if _, err := db.WriteBatch(pts); err != nil {
		tb.Fatal(err)
	}
	info, err := db.Checkpoint()
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		tb.Fatal(err)
	}
	records, err := os.ReadFile(ckptFormat().SegmentPath(filepath.Join(dir, ckptDirName), info.WALSegment))
	if err != nil {
		tb.Fatal(err)
	}
	lines, err := os.ReadFile(filepath.Join(goldenDataDir, ckptDirName, "00000002.ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{records, records[:len(records)-5], records[:seglog.MagicBytes+3],
		lines, lines[:len(lines)/2], lines[:len(lines)-1]}
}

// fuzzCheckpointPoints is the oracle for one checkpoint image: the points
// its records hold, and whether it has the magic and every frame and entry
// check out — in which case open must succeed.
func fuzzCheckpointPoints(path string) (points uint64, magic, valid bool) {
	_, stop, err := ckptFormat().Scan(path, func(payload []byte) error {
		return DecodeRecord(payload, func(*Point) error { points++; return nil })
	})
	return points, stop != seglog.StopBadMagic, err == nil && stop == seglog.StopEOF
}

// FuzzCheckpointOpen writes arbitrary bytes as a data directory's only
// checkpoint and opens it. Open must never panic. A file with the magic
// opens exactly when every frame and entry checks out (a renamed-in
// checkpoint has no tear to tolerate), with every point of its records
// restored or skipped as refused; a file without it is an older binary's
// line protocol, which opens with one point per line or not at all.
// Whatever fails names the checkpoint.
func FuzzCheckpointOpen(f *testing.F) {
	for _, s := range fuzzCheckpointSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		old := maxRecordBytes
		maxRecordBytes = 1 << 20 // hostile length fields cost at most this
		defer func() { maxRecordBytes = old }()

		dir := filepath.Join(filepath.Dir(fuzzScratchPath()), "datadir")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		path := ckptFormat().SegmentPath(filepath.Join(dir, ckptDirName), 1)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, magic, valid := fuzzCheckpointPoints(path)
		db, err := OpenDB(Options{Persist: persistOpts(dir, FsyncOff)})
		if err != nil {
			if !strings.Contains(err.Error(), filepath.Base(path)) {
				t.Fatalf("open failed without naming the checkpoint: %v", err)
			}
			if magic && valid {
				t.Fatalf("a checkpoint whose frames all check out failed to open: %v", err)
			}
			return
		}
		defer db.Close()
		st := db.PersistStats()
		if !magic {
			want = 0
			for _, line := range strings.Split(string(data), "\n") {
				if line = strings.TrimSuffix(line, "\r"); line != "" && line[0] != '#' {
					want++
				}
			}
		} else if !valid {
			t.Fatal("a checkpoint with a bad frame or entry opened")
		}
		if st.RestoredPoints+st.WALReplaySkipped != want {
			t.Fatalf("restored %d + skipped %d points, want %d", st.RestoredPoints, st.WALReplaySkipped, want)
		}
	})
}

// samePoint reports whether two points are equal field for field, values by
// bit pattern except that any NaN equals any NaN (line protocol has one
// spelling for it).
func samePoint(a, b *Point) bool {
	if a.Name != b.Name || a.Time != b.Time || len(a.Tags) != len(b.Tags) || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Tags {
		if a.Tags[i] != b.Tags[i] {
			return false
		}
	}
	for i := range a.Fields {
		x, y := a.Fields[i].Value, b.Fields[i].Value
		if a.Fields[i].Key != b.Fields[i].Key ||
			(math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y))) {
			return false
		}
	}
	return true
}

// FuzzParseLine feeds arbitrary text to the line-protocol parser. It must
// never panic; a point it accepts must come back equal from MarshalLine →
// ParseLine; and that point must be stored by Write — or refused as
// ErrNoFields/ErrBadRef — and come back out of Snapshot → Restore (what
// every checkpoint load does) with its tags sorted and its NaN fields
// (field absent) left out.
func FuzzParseLine(f *testing.F) {
	for _, line := range []string{
		`latency,dst_city=Los\ Angeles,src_city=Auckland total_ms=145.25,internal_ms=15.5 1700000000123456789`,
		`my\ measure\,ment,ke\ y=va\=lue\,x f\ 1=2 42`,
		`weather,location=us-midwest temperature=82 1465839830100400200`,
		`m f=10i 1`, `m f=true 1`, `m,a=1,b=2 f=1,g=2`, `m,a= f=-0,g=NaN,h=+Inf -9223372036854775808`,
		`m\\,k\\=v\\ f\\=1 7`, `m,a=1,a=2 f=0x1p-2`, `m,a=b x=1,x=2 100`,
		"", "nofields", "m ", "m =1", "m f=", "m f=abc", `m f="str"`,
		"m,tag f=1 notanumber", `m,=v f=1`, "m f=1 1 trailing", "m\\",
		"m,a=Auck\\\nland f=1 1", "m f\\\n=1 1", "#m f=1 1",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var p Point
		if err := ParseLine(line, &p); err != nil {
			return
		}
		out := MarshalLine(nil, &p)
		var back Point
		if err := ParseLine(string(out), &back); err != nil || !samePoint(&p, &back) {
			t.Fatalf("round trip of %q through %q: %v\n parsed %+v\n back   %+v", line, out, err, p, back)
		}

		db := Open(Options{Stripes: 1, Rollups: []RollupTier{{Width: 1e9}}})
		defer db.Close()
		if err := db.Write(&back); err != nil {
			if !errors.Is(err, ErrNoFields) && !errors.Is(err, ErrBadRef) {
				t.Fatalf("Write refused a parsed point (%q) with %v", line, err)
			}
			return
		}
		want := Point{Name: p.Name, Time: p.Time, Tags: p.Tags}
		for _, fl := range p.Fields {
			if !math.IsNaN(fl.Value) {
				want.Fields = append(want.Fields, fl)
			}
		}
		var dump bytes.Buffer
		n, err := db.Snapshot(&dump)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Fields) == 0 {
			if n != 0 {
				t.Fatalf("all-NaN point dumped as %q", dump.Bytes())
			}
			return
		}
		// Through Restore, as every checkpoint load reads it: the dump must
		// come back as exactly the one point written.
		db2 := Open(Options{Stripes: 1})
		defer db2.Close()
		if m, err := db2.Restore(&dump); m != 1 || err != nil {
			t.Fatalf("Restore of %q's dump: %d points, %v", line, m, err)
		}
		dump.Reset()
		if _, err := db2.Snapshot(&dump); err != nil {
			t.Fatal(err)
		}
		var stored Point
		err = ParseLine(string(bytes.TrimSuffix(dump.Bytes(), []byte("\n"))), &stored)
		if !sort.SliceIsSorted(stored.Tags, func(i, j int) bool { return stored.Tags[i].Key < stored.Tags[j].Key }) {
			t.Fatalf("stored tags not sorted by key: %+v", stored.Tags)
		}
		// Equal keys may come out in either order: compare as sets.
		for _, tags := range [][]Tag{want.Tags, stored.Tags} {
			sort.Slice(tags, func(i, j int) bool {
				if tags[i].Key != tags[j].Key {
					return tags[i].Key < tags[j].Key
				}
				return tags[i].Value < tags[j].Value
			})
		}
		if n != 1 || err != nil || !samePoint(&want, &stored) {
			t.Fatalf("stored point differs (%d points, %v):\n wrote  %+v\n dumped %+v", n, err, want, stored)
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
