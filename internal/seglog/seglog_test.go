package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var testFormat = Format{Suffix: ".seg", Magic: "SEGTEST1", MaxRecord: 4096}

// appendBytes appends payload as one record.
func appendBytes(l *Log, payload []byte) error {
	return l.Append(func(buf []byte) []byte { return append(buf, payload...) })
}

// scanAll returns copies of every payload Scan delivers from one segment.
func scanAll(t *testing.T, f Format, path string) ([][]byte, Stop) {
	t.Helper()
	var got [][]byte
	n, stop, err := f.Scan(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%s): %v", filepath.Base(path), err)
	}
	if n != len(got) {
		t.Fatalf("Scan(%s) reported %d records, delivered %d", filepath.Base(path), n, len(got))
	}
	return got, stop
}

// TestModelRandomized drives a Log with seeded appends of mixed sizes,
// explicit and size-triggered rotations, oversized records, injected write
// failures and blocked segment creates, against an in-memory list of what
// was acknowledged, then reads the directory back: every segment must scan
// to exactly the payloads acknowledged into it (never one that was not
// appended), a segment whose predecessor saw a failure must open with the
// tear acknowledgement, and only such a predecessor may end in a tear. The
// model owner keeps per-segment state the way the WAL keeps its dictionary
// — a counter reset in OnSegment and stamped into each record by encode —
// and record i of every segment must carry i: no acknowledged record was
// encoded against state a failed append left behind. Finally the last
// segment is cut at every byte offset of its last frame: the scan must
// deliver exactly the records before it.
func TestModelRandomized(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncOff, SyncAlways, SyncInterval} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				modelRun(t, policy, seed)
			})
		}
	}
}

func modelRun(t *testing.T, policy SyncPolicy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cur := uint64(0)
	inSeg := byte(0) // records encoded against the current segment
	l, err := Open(dir, testFormat, 1, Options{
		MaxSegmentBytes: 2048,
		Sync:            policy,
		OnSegment: func(seg uint64) {
			if seg != cur+1 {
				t.Errorf("OnSegment(%d) after segment %d", seg, cur)
			}
			cur, inSeg = seg, 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64][][]byte{} // segment → payloads acknowledged into it
	failed := map[uint64]bool{}    // segments that saw a failed operation
	payload := func(n int) []byte {
		p := make([]byte, n+2) // never the 1-byte acknowledgement
		rng.Read(p)
		return p
	}
	for op := 0; op < 300; op++ {
		switch r := rng.Intn(100); {
		case r < 4:
			if _, err := l.Rotate(); err != nil {
				t.Fatalf("Rotate: %v", err)
			}
		case r < 8 && policy != SyncInterval:
			// Under SyncInterval a failed flush surfaces on a later Sync,
			// after Append acknowledged the record — the documented loss
			// window — so the model injects only where Append itself reports.
			l.InjectWriteFault(rng.Intn(40))
		default:
			n := rng.Intn(600)
			if r >= 97 {
				n = int(testFormat.MaxRecord) + 1 + rng.Intn(100)
			}
			blocker := ""
			if r < 12 {
				// The next segment cannot be created: the append fails if
				// it needs one.
				blocker = testFormat.SegmentPath(dir, cur+1)
				if err := os.WriteFile(blocker, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			p := payload(n)
			landed := uint64(0)
			err := l.Append(func(buf []byte) []byte {
				landed = cur // the last call encodes against the segment written to
				p[0] = inSeg
				inSeg++
				return append(buf, p...)
			})
			if blocker != "" {
				if err := os.Remove(blocker); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case err == nil:
				acked[landed] = append(acked[landed], p)
			case n > int(testFormat.MaxRecord) && !errors.Is(err, ErrRecordTooBig):
				t.Fatalf("oversized append: %v, want ErrRecordTooBig", err)
			default:
				failed[landed] = true
			}
		}
	}
	// One last record, so the final segment has a frame to cut.
	last := payload(100)
	for l.Append(func(buf []byte) []byte {
		last[0] = inSeg
		inSeg++
		return append(buf, last...)
	}) != nil {
		failed[cur] = true
	}
	acked[cur] = append(acked[cur], last)
	if err := l.Close(); err != nil && len(failed) == 0 {
		t.Fatalf("Close: %v", err)
	}

	segs, err := testFormat.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(segs)) != cur || segs[0] != 1 || segs[len(segs)-1] != cur {
		t.Fatalf("segments on disk %v, want 1..%d", segs, cur)
	}
	for _, seg := range segs {
		got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, seg))
		if failed[seg-1] != (len(got) > 0 && IsTearAck(got[0])) {
			t.Fatalf("segment %d: predecessor failed=%v but first record ack=%v",
				seg, failed[seg-1], !failed[seg-1])
		}
		if failed[seg-1] {
			got = got[1:]
		}
		if stop != StopEOF && !failed[seg] {
			t.Fatalf("segment %d: scan stopped with %q though no operation on it failed", seg, stop)
		}
		if len(got) != len(acked[seg]) {
			t.Fatalf("segment %d: scanned %d records, %d were acknowledged", seg, len(got), len(acked[seg]))
		}
		for i := range got {
			if !bytes.Equal(got[i], acked[seg][i]) {
				t.Fatalf("segment %d record %d: scanned a payload that was not appended there", seg, i)
			}
			if got[i][0] != byte(i) {
				t.Fatalf("segment %d record %d was encoded against per-segment state %d: a failed append's state leaked into it",
					seg, i, got[i][0])
			}
		}
	}

	path := testFormat.SegmentPath(dir, cur)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(acked[cur])
	if failed[cur-1] {
		want++ // the acknowledgement is a record too
	}
	frame := FrameBytes + len(last)
	for cut := len(img) - frame; cut < len(img); cut++ {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, stop := scanAll(t, testFormat, path)
		if len(got) != want-1 {
			t.Fatalf("cut at %d of %d: %d records, want %d", cut, len(img), len(got), want-1)
		}
		wantStop := StopShortBody
		switch {
		case cut == len(img)-frame:
			wantStop = StopEOF
		case cut < len(img)-frame+FrameBytes:
			wantStop = StopShortHeader
		}
		if stop != wantStop {
			t.Fatalf("cut at %d of %d: stop %q, want %q", cut, len(img), stop, wantStop)
		}
	}
}

// TestRotateCreateFailureDoesNotWedge: when the next segment cannot be
// created, the operation that needed it fails and the files stay exactly
// as they were — in particular the old one is not retired, so the retry
// does not retire it a second time and leave every later sync cycle
// closing a closed descriptor.
func TestRotateCreateFailureDoesNotWedge(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, testFormat, 1, Options{MaxSegmentBytes: 64, Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			rec := bytes.Repeat([]byte{'x'}, 40) // two do not fit one segment
			if err := appendBytes(l, rec); err != nil {
				t.Fatal(err)
			}
			blocker := testFormat.SegmentPath(dir, 2)
			if err := os.WriteFile(blocker, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := l.Rotate(); err == nil {
					t.Fatal("Rotate succeeded over an existing segment file")
				}
				if err := appendBytes(l, rec); err == nil {
					t.Fatal("Append succeeded although it needed a segment that cannot be created")
				}
			}
			if st := l.Stats(); st.Errors != 2 || st.Appends != 1 || st.Segment != 1 {
				t.Fatalf("after failed rotations: %+v", st)
			}
			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := appendBytes(l, rec); err != nil {
					t.Fatalf("append %d after the blocker was removed: %v", i, err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			total := 0
			segs, _ := testFormat.Segments(dir)
			for _, seg := range segs {
				got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, seg))
				if stop != StopEOF {
					t.Fatalf("segment %d: %q", seg, stop)
				}
				for _, p := range got {
					if !IsTearAck(p) {
						total++
					}
				}
			}
			if total != 11 {
				t.Fatalf("scanned %d records, want 11", total)
			}
		})
	}
}

// TestSyncNeverRacesAClose: a sync cycle fdatasyncs outside the append
// lock, so a rotation meanwhile must not close the file the cycle holds —
// under SyncOff, and after a failed flush under any policy, it used to,
// and the cycle then synced a closed (or worse, reused) descriptor. The
// window is a few instructions wide, so the test holds it open by hand.
func TestSyncNeverRacesAClose(t *testing.T) {
	l, err := Open(t.TempDir(), testFormat, 1, Options{MaxSegmentBytes: 1 << 20, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(l, []byte("one")); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	held := l.f // what a sync cycle captures before it lets go of mu
	l.syncing = true
	l.mu.Unlock()
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := fdatasync(held); err != nil {
		t.Fatalf("the file a sync cycle holds was closed under it: %v", err)
	}
	l.mu.Lock()
	l.syncing = false
	l.mu.Unlock()
	if err := l.Sync(); err != nil { // the next cycle to end closes it
		t.Fatal(err)
	}
	if err := held.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("the dropped file was left open: Close = %v", err)
	}
	if _, err := l.Rotate(); err != nil { // no cycle in flight: closed at once
		t.Fatal(err)
	}
	if st := l.Stats(); st.Errors != 0 || len(l.dropped) != 0 {
		t.Fatalf("errors %d, %d files left to close", st.Errors, len(l.dropped))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectWriteFaultIsTestOnly: the fault seam is exported for the tsdb
// and fed tests, not for production code.
func TestInjectWriteFaultIsTestOnly(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" ||
			strings.HasSuffix(path, "_test.go") || path == filepath.Join(root, "internal", "seglog", "seglog.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil && bytes.Contains(src, []byte("InjectWriteFault")) {
			t.Errorf("%s uses seglog's test-only fault seam", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteFailurePoisonsRotatesAcknowledges pins the failed-write
// discipline: the failing append reports the error and is counted, the
// next one lands on a fresh segment that opens with the acknowledgement,
// and the abandoned segment scans to what preceded the tear.
func TestWriteFailurePoisonsRotatesAcknowledges(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFormat, 1, Options{MaxSegmentBytes: 1 << 20, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(l, []byte("one")); err != nil {
		t.Fatal(err)
	}
	l.InjectWriteFault(5) // a real partial frame on disk
	if err := appendBytes(l, []byte("lost")); err == nil {
		t.Fatal("Append succeeded despite the injected failure")
	}
	if l.Stats().Errors == 0 {
		t.Fatal("failed append not counted")
	}
	if err := appendBytes(l, []byte("two")); err != nil {
		t.Fatalf("append after a failed write did not self-heal: %v", err)
	}
	if l.Stats().Segment != 2 {
		t.Fatalf("append after a failed write stayed on segment %d", l.Stats().Segment)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, 1))
	if len(got) != 1 || string(got[0]) != "one" || stop != StopShortHeader {
		t.Fatalf("abandoned segment: %q, stop %q", got, stop)
	}
	if testFormat.StartsWithTearAck(testFormat.SegmentPath(dir, 1)) {
		t.Fatal("segment 1 claims a tear acknowledgement")
	}
	if !testFormat.StartsWithTearAck(testFormat.SegmentPath(dir, 2)) {
		t.Fatal("segment after the failed write does not open with the acknowledgement")
	}
	got, stop = scanAll(t, testFormat, testFormat.SegmentPath(dir, 2))
	if len(got) != 2 || !IsTearAck(got[0]) || string(got[1]) != "two" || stop != StopEOF {
		t.Fatalf("healed segment: %q, stop %q", got, stop)
	}
}

// TestGroupCommit: under SyncAlways every acknowledged append is on disk
// without any orderly shutdown, and concurrent appenders share fdatasyncs.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFormat, 1, Options{MaxSegmentBytes: 1 << 10, Sync: SyncAlways})
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
				if err := appendBytes(l, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*per || st.Syncs == 0 || st.Syncs > st.Appends || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	// No Close: the process "dies" here.
	seen := map[string]bool{}
	segs, _ := testFormat.Segments(dir)
	if len(segs) < 2 {
		t.Fatalf("want several segments, got %v", segs)
	}
	for _, seg := range segs {
		got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, seg))
		if stop != StopEOF {
			t.Fatalf("segment %d: %q", seg, stop)
		}
		for _, p := range got {
			seen[string(p)] = true
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct records durable, want %d", len(seen), writers*per)
	}
}

// TestOpenAfterTear: an owner that tolerated a tear at the end of what was
// on disk gets the acknowledgement at the head of its first segment.
func TestOpenAfterTear(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFormat, 3, Options{MaxSegmentBytes: 1 << 20, Sync: SyncOff, AfterTear: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(l, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// SyncOff: on disk without a Close.
	got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, 3))
	if len(got) != 2 || !IsTearAck(got[0]) || string(got[1]) != "first" || stop != StopEOF {
		t.Fatalf("scanned %q, stop %q", got, stop)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveBelowAndClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, testFormat, 5, Options{MaxSegmentBytes: 1 << 20, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBytes(l, []byte("r")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := testFormat.RemoveBelow(dir, 7); n != 2 || err != nil {
		t.Fatalf("RemoveBelow(7) = %d, %v", n, err)
	}
	if segs, _ := testFormat.Segments(dir); len(segs) != 2 || segs[0] != 7 || segs[1] != 8 {
		t.Fatalf("segments %v, want [7 8]", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := appendBytes(l, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close: %v", err)
	}
	if _, err := Open(dir, testFormat, 8, Options{}); err == nil {
		t.Fatal("Open over an existing segment succeeded")
	}
}

// TestWriteSegment: a segment written whole scans back record for record,
// replaces the segment already there, and a refused write leaves neither
// its segment nor its temporary behind.
func TestWriteSegment(t *testing.T) {
	dir := t.TempDir()
	recs := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, int(testFormat.MaxRecord))}
	for round := 0; round < 2; round++ {
		if err := testFormat.WriteSegment(dir, 3, recs); err != nil {
			t.Fatal(err)
		}
		got, stop := scanAll(t, testFormat, testFormat.SegmentPath(dir, 3))
		if stop != StopEOF || len(got) != len(recs) {
			t.Fatalf("round %d: scanned %d records, stop %q; want %d", round, len(got), stop, len(recs))
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("round %d record %d: %q, want %q", round, i, got[i], recs[i])
			}
		}
		recs = recs[:1] // the next round replaces the segment
	}
	tooBig := [][]byte{[]byte("fits"), make([]byte, testFormat.MaxRecord+1)}
	if err := testFormat.WriteSegment(dir, 4, tooBig); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("WriteSegment with a record over the bound: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != filepath.Base(testFormat.SegmentPath(dir, 3)) {
		t.Fatalf("directory holds %v, want segment 3 alone", ents)
	}
}

// frameOf returns payload framed for the disk.
func frameOf(payload []byte) []byte {
	return sealFrame(append(make([]byte, FrameBytes), payload...))
}

// segmentImage builds a file image: magic, then the given frames verbatim.
func segmentImage(frames ...[]byte) []byte {
	img := []byte(testFormat.Magic)
	for _, f := range frames {
		img = append(img, f...)
	}
	return img
}

func TestScanStopReasons(t *testing.T) {
	good := frameOf([]byte("payload"))
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 0xff
	huge := binary.LittleEndian.AppendUint32(nil, uint32(testFormat.MaxRecord)+1)
	huge = append(huge, 0, 0, 0, 0)
	for _, tc := range []struct {
		name    string
		img     []byte
		records int
		stop    Stop
	}{
		{"empty file", nil, 0, StopBadMagic},
		{"short magic", []byte("SEGT"), 0, StopBadMagic},
		{"other magic", append([]byte("SEGTEST0"), good...), 0, StopBadMagic},
		{"magic only", segmentImage(), 0, StopEOF},
		{"clean", segmentImage(good, good), 2, StopEOF},
		{"short header", segmentImage(good, good[:5]), 1, StopShortHeader},
		{"length over the bound", segmentImage(good, huge), 1, StopBadLength},
		{"short body", segmentImage(good, good[:len(good)-1]), 1, StopShortBody},
		{"bad CRC", segmentImage(good, badCRC, good), 1, StopBadCRC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "img")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			got, stop := scanAll(t, testFormat, path)
			if len(got) != tc.records || stop != tc.stop {
				t.Fatalf("%d records, stop %q; want %d, %q", len(got), stop, tc.records, tc.stop)
			}
			if stop.String() == "" {
				t.Fatal("stop has no name")
			}
		})
	}
	if _, _, err := testFormat.Scan(filepath.Join(t.TempDir(), "absent"), nil); err == nil {
		t.Fatal("Scan of a missing file returned no error")
	}
	// fn's error ends the scan and comes back.
	path := filepath.Join(t.TempDir(), "img")
	os.WriteFile(path, segmentImage(good, good), 0o644)
	boom := errors.New("boom")
	if n, _, err := testFormat.Scan(path, func([]byte) error { return boom }); n != 0 || err != boom {
		t.Fatalf("Scan with a failing fn: %d, %v", n, err)
	}
}

// FuzzSegmentScan: arbitrary bytes never panic, never deliver a payload
// above the record bound (the bound also caps what Scan allocates), and
// always stop with a named reason; a clean stop means the file is exactly
// magic + the delivered frames.
func FuzzSegmentScan(f *testing.F) {
	good := frameOf([]byte("payload"))
	f.Add(segmentImage(good, frameOf([]byte{tearAck}), good))
	f.Add(segmentImage(good, good[:len(good)-3]))
	f.Add(segmentImage(binary.LittleEndian.AppendUint32(nil, 0xffffff00)))
	f.Add([]byte("SEGTEST0"))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "img")
	small := Format{Suffix: ".seg", Magic: "SEGTEST1", MaxRecord: 1 << 10}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(MagicBytes)
		n, stop, err := small.Scan(path, func(p []byte) error {
			if int64(len(p)) > small.MaxRecord {
				t.Fatalf("delivered a %d-byte payload over the %d bound", len(p), small.MaxRecord)
			}
			size += FrameBytes + int64(len(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stop < StopEOF || stop > StopBadCRC {
			t.Fatalf("unnamed stop %d", stop)
		}
		if stop == StopEOF && size != int64(len(data)) {
			t.Fatalf("clean end after %d records covering %d of %d bytes", n, size, len(data))
		}
		if stop == StopBadMagic && n != 0 {
			t.Fatalf("%d records from a file without the magic", n)
		}
		small.StartsWithTearAck(path)
	})
}
