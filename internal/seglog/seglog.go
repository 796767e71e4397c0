// Package seglog is the one crash-safe record log on disk: a directory of
// numbered segment files that the TSDB write-ahead log (internal/tsdb) and
// the federation probe's unacked-batch spool (internal/fed) both append to
// and recover from, and that the TSDB's checkpoints are written into whole
// (Format.WriteSegment). Everything that names, lists, creates, frames,
// scans, rotates, syncs and removes a segment lives here; the owners keep
// only what their payloads mean. ARCHITECTURE.md "The segment log" has the
// design.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	MagicBytes = 8 // length of a segment's leading magic
	FrameBytes = 8 // per-record overhead: 4B length + 4B CRC
)

var (
	// ErrClosed reports an operation on a closed Log.
	ErrClosed = errors.New("seglog: log closed")
	// ErrRecordTooBig reports a payload above Format.MaxRecord, which Scan
	// would read as a tear: the owner splits the record and retries.
	ErrRecordTooBig = errors.New("seglog: record exceeds the log's size bound")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tearAck is the one-byte payload of the tear acknowledgement record, which
// no owner appends itself (the WAL reserves its entry kind 2 for it; every
// spool payload starts with an 8-byte sequence number).
const tearAck = 2

var tearAckFrame = sealFrame([]byte{0, 0, 0, 0, 0, 0, 0, 0, tearAck})

// IsTearAck reports whether a scanned payload is the acknowledgement a
// segment opens with when its predecessor may end in a tear; owners skip it.
func IsTearAck(payload []byte) bool {
	return len(payload) == 1 && payload[0] == tearAck
}

// sealFrame fills in the header of a frame whose payload is already in
// place behind the FrameBytes reserved for it.
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-FrameBytes))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[FrameBytes:], crcTable))
	return frame
}

// SyncPolicy selects when appends are made durable.
type SyncPolicy string

const (
	// SyncInterval leaves appends in the 64 KiB buffer for the owner's
	// periodic Sync: bounded loss window, near-in-memory append latency.
	SyncInterval SyncPolicy = "interval"
	// SyncAlways fdatasyncs before Append returns, group-committed across
	// concurrent appenders: nothing acknowledged is lost to a power failure.
	SyncAlways SyncPolicy = "always"
	// SyncOff writes each record through to the OS (one write per record)
	// and never syncs: survives process crashes, not power loss.
	SyncOff SyncPolicy = "off"
)

// Format is what distinguishes one log's files from another's. A segment
// is <dir>/%08d<Suffix>: Magic, then records of
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// created O_EXCL and never reopened for append — Open and every rotation
// start a fresh file numbered after the last, so a possibly-torn old tail
// is never written behind and stays detectable.
type Format struct {
	// Suffix is the segment file name suffix, e.g. ".wal".
	Suffix string
	// Magic is the MagicBytes-long string every segment starts with.
	Magic string
	// MaxRecord bounds one payload on both sides: Append refuses a larger
	// one and Scan treats a larger length field as a tear, not as an
	// allocation request. Far below the frame's 4 GiB uint32 limit.
	MaxRecord int64
}

// SegmentPath returns the file name of segment seg under dir.
func (f Format) SegmentPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", seg, f.Suffix))
}

// Segments returns the indexes of the segments present in dir, ascending.
func (f Format) Segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if num, ok := strings.CutSuffix(e.Name(), f.Suffix); ok {
			if n, err := strconv.ParseUint(num, 10, 64); err == nil {
				segs = append(segs, n)
			}
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// RemoveBelow deletes the segments in dir with index < bound (the ones the
// owner no longer needs) and reports how many went.
func (f Format) RemoveBelow(dir string, bound uint64) (removed int, err error) {
	segs, err := f.Segments(dir)
	for _, s := range segs {
		if s >= bound {
			break
		}
		if e := os.Remove(f.SegmentPath(dir, s)); e != nil {
			err = errors.Join(err, e)
		} else {
			removed++
		}
	}
	return removed, err
}

// create makes segment seg, which must not exist yet.
func (f Format) create(dir string, seg uint64) (*os.File, error) {
	return os.OpenFile(f.SegmentPath(dir, seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// WriteSegment writes segment seg whole and atomically, replacing any: a
// Log of its own appends the records to <segment>.tmp and syncs it on
// Close, then a rename and a directory fsync put it in place, so after a
// crash seg is what it was or all of the new one. A record above MaxRecord
// fails with ErrRecordTooBig. On failure the temporary is removed; a
// crash's is the owner's to delete.
func (f Format) WriteSegment(dir string, seg uint64, records [][]byte) error {
	tmp := f
	tmp.Suffix += ".tmp"
	path := tmp.SegmentPath(dir, seg)
	os.Remove(path) // create is O_EXCL
	l, err := Open(dir, tmp, seg, Options{MaxSegmentBytes: math.MaxInt64, Sync: SyncInterval})
	if err != nil {
		return err
	}
	for _, r := range records {
		if err = l.Append(func(buf []byte) []byte { return append(buf, r...) }); err != nil {
			break
		}
	}
	if err = errors.Join(err, l.Close()); err == nil {
		err = os.Rename(path, f.SegmentPath(dir, seg))
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = errors.Join(d.Sync(), d.Close())
		}
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// Stop says why a Scan ended.
type Stop int

const (
	StopEOF         Stop = iota // clean end: the file ends on a frame boundary
	StopBadMagic                // shorter than, or not starting with, the magic; nothing delivered
	StopShortHeader             // fewer than FrameBytes remain
	StopBadLength               // the length field exceeds Format.MaxRecord
	StopShortBody               // the file ends inside the payload
	StopBadCRC                  // the payload does not match its checksum
)

var stopNames = [...]string{"clean end", "bad magic", "short frame header",
	"implausible record length", "short record body", "CRC mismatch"}

func (s Stop) String() string { return stopNames[s] }

// Scan streams the records of one segment file to fn, in order, up to the
// first frame that does not check out, and reports how many it delivered
// and why it stopped. Every delivered payload was appended whole; the
// slice is reused between calls — copy what you keep. err is non-nil only
// when the file cannot be opened or fn returns an error (which ends the
// scan). Arbitrary bytes never panic or cost more than Format.MaxRecord.
func (f Format) Scan(path string, fn func(payload []byte) error) (records int, stop Stop, err error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, StopEOF, err
	}
	defer file.Close()
	br := bufio.NewReaderSize(file, 1<<16)
	var magic [MagicBytes]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != f.Magic {
		return 0, StopBadMagic, nil
	}
	var hdr [FrameBytes]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return records, StopEOF, nil
			}
			return records, StopShortHeader, nil
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > f.MaxRecord {
			return records, StopBadLength, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, StopShortBody, nil
		}
		if crc32.Checksum(payload, crcTable) != want {
			return records, StopBadCRC, nil
		}
		if err := fn(payload); err != nil {
			return records, StopEOF, err
		}
		records++
	}
}

// StartsWithTearAck reports whether the segment's first record is a tear
// acknowledgement: its predecessor's torn tail is expected, not corruption.
func (f Format) StartsWithTearAck(path string) bool {
	ack := false
	f.Scan(path, func(payload []byte) error {
		ack = IsTearAck(payload)
		return io.EOF // one record is enough
	})
	return ack
}

// Options configures the appending side of a Log.
type Options struct {
	// MaxSegmentBytes is the size at which Append rotates to a new segment
	// (a single larger record still gets a segment to itself).
	MaxSegmentBytes int64
	// Sync is the durability policy.
	Sync SyncPolicy
	// AfterTear says the owner's scan of the disk ended in a tear it
	// tolerated: the first segment opens with the acknowledgement, because
	// the torn segment is about to stop being the last one.
	AfterTear bool
	// OnSegment, if set, runs each time a fresh segment becomes current —
	// in Open and after every rotation — with the append lock held: where
	// an owner resets state scoped to one segment. It must not call back
	// into the Log.
	OnSegment func(seg uint64)
}

// Log is the appending side of one segment directory. All mutation
// happens under mu; syncing additionally serializes under syncMu (order
// syncMu → mu) so fdatasyncs group-commit. A sync cycle fdatasyncs outside
// mu, so a segment file is closed only by the cycle itself (or Close, both
// under syncMu) or, under mu, while no cycle is in flight: never under a
// running fdatasync.
type Log struct {
	fmt  Format
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      uint64 // current segment index
	segBytes int64
	lsn      uint64 // records appended (monotonic)
	closed   bool
	// poisoned: an append failed. The segment's tail may be mid-frame (the
	// write failed) and its owner's per-segment state is ahead of the
	// stream (encode ran for a record that is not in it), so nothing more
	// may be appended here: the next append rotates, acknowledging the tear.
	poisoned bool
	// retired holds rotated-out segment files awaiting fdatasync+close by
	// the next sync cycle (empty under SyncOff, which needs no sync).
	retired []*os.File
	// syncing: a sync cycle is fdatasyncing the files it captured, outside
	// mu. A rotation with a file to close meanwhile leaves it in dropped
	// for that cycle to close.
	syncing bool
	dropped []*os.File
	scratch []byte // frame build buffer

	syncMu    sync.Mutex
	syncedLSN atomic.Uint64

	appends atomic.Uint64
	errs    atomic.Uint64
	syncs   atomic.Uint64
}

// Open starts appending to dir at a fresh segment numbered first, which
// the caller picks after every segment already on disk.
func Open(dir string, f Format, first uint64, opts Options) (*Log, error) {
	file, err := f.create(dir, first)
	if err != nil {
		return nil, err
	}
	l := &Log{fmt: f, dir: dir, opts: opts, bw: bufio.NewWriterSize(file, 1<<16)}
	if err := l.install(file, first, opts.AfterTear); err != nil {
		// Remove the half-born segment so a retry does not trip O_EXCL.
		file.Close()
		os.Remove(file.Name())
		return nil, err
	}
	return l, nil
}

// install makes a just-created segment current and writes its magic and,
// after a tear, the acknowledgement — like any record: buffered, and
// flushed at once under SyncOff. Caller holds mu (or is Open).
func (l *Log) install(f *os.File, seg uint64, tear bool) error {
	l.f, l.seg, l.segBytes, l.poisoned = f, seg, 0, false
	l.bw.Reset(f) // also clears a failed writer's sticky error
	if l.opts.OnSegment != nil {
		l.opts.OnSegment(seg)
	}
	err := l.writeLocked([]byte(l.fmt.Magic))
	if err == nil && tear {
		err = l.writeLocked(tearAckFrame)
	}
	return err
}

// Append frames and writes one record. encode appends the payload to buf
// and returns the extended slice; it runs under the append lock, and runs
// a second time if the record does not fit the current segment — rotation
// resets the owner's per-segment state (Options.OnSegment), so the record
// must be rebuilt against the new segment. Under SyncAlways Append returns
// only after the record is durable; under SyncOff it is flushed to the OS;
// under SyncInterval it may sit in the buffer until the next Sync.
func (l *Log) Append(encode func(buf []byte) []byte) error {
	l.mu.Lock()
	err := l.appendLocked(encode)
	lsn := l.lsn
	l.mu.Unlock()
	if err != nil {
		l.errs.Add(1)
		return err
	}
	l.appends.Add(1)
	if l.opts.Sync == SyncAlways {
		return l.syncTo(lsn)
	}
	return nil
}

func (l *Log) appendLocked(encode func(buf []byte) []byte) error {
	if l.closed {
		return ErrClosed
	}
	frame, err := l.build(encode)
	if err == nil && (l.poisoned ||
		l.segBytes+int64(len(frame)) > l.opts.MaxSegmentBytes && l.segBytes > MagicBytes) {
		if err = l.rotateLocked(); err == nil {
			frame, err = l.build(encode)
		}
	}
	if err == nil {
		err = l.writeLocked(sealFrame(frame))
	}
	if err != nil {
		// Refused, no segment to be had, or torn: either way encode has
		// moved the owner's per-segment state past bytes that are not in
		// the stream, and a later record that did fit would be encoded
		// against that state and read back wrong, or not at all.
		l.poisoned = true
		return err
	}
	l.lsn++
	return nil
}

// build runs encode into the log's own buffer, behind room for the frame
// header, and refuses a record Scan would reject. Caller holds mu.
func (l *Log) build(encode func(buf []byte) []byte) ([]byte, error) {
	frame := encode(append(l.scratch[:0], make([]byte, FrameBytes)...))
	l.scratch = frame[:0]
	if int64(len(frame)-FrameBytes) > l.fmt.MaxRecord {
		return nil, ErrRecordTooBig
	}
	return frame, nil
}

// writeLocked writes one sealed frame (or the magic). Caller holds mu.
func (l *Log) writeLocked(frame []byte) error {
	if _, err := l.bw.Write(frame); err != nil {
		return err
	}
	if l.opts.Sync == SyncOff {
		if err := l.bw.Flush(); err != nil {
			return err
		}
	}
	l.segBytes += int64(len(frame))
	return nil
}

// rotateLocked finishes the current segment and starts the next. Caller
// holds mu. The next segment is created FIRST: a failed create (ENOSPC,
// EMFILE, a stray file tripping O_EXCL) leaves the files exactly as they
// were for the retry — retiring the old file before the new one exists
// would retire it twice, and the second close fails every later sync cycle
// with EBADF.
//
// No fdatasync here (it would stall every appender behind the rotation):
// the old file is retired for the next sync cycle, or dropped under
// SyncOff. A flush failure on it does NOT abort the rotation: bufio.Writer
// errors are sticky, so the only way back to a working log is a fresh
// segment. The failed buffer's records are gone — counted in Stats, the
// signal the runbook alerts on — and the abandoned segment may end
// mid-frame without being the last on disk: hence the acknowledgement.
func (l *Log) rotateLocked() error {
	next, err := l.fmt.create(l.dir, l.seg+1)
	if err != nil {
		return err
	}
	tear := l.poisoned
	if err := l.bw.Flush(); err != nil {
		l.errs.Add(1)
		tear = true
		// The stream may end mid-frame: drop the broken segment rather
		// than retiring it for a sync that may fail on it forever.
		l.dropLocked(l.f)
	} else if l.opts.Sync == SyncOff {
		l.dropLocked(l.f)
	} else {
		l.retired = append(l.retired, l.f)
	}
	if err = l.install(next, l.seg+1, tear); err != nil {
		// Still failing: poison again so the next append rotates again.
		l.poisoned = true
		l.errs.Add(1)
	}
	return err
}

// dropLocked closes a rotated-out file that will not be synced — now, or
// when the sync cycle that may be fdatasyncing it ends. Caller holds mu.
func (l *Log) dropLocked(f *os.File) {
	if l.syncing {
		l.dropped = append(l.dropped, f)
	} else if err := f.Close(); err != nil {
		l.errs.Add(1)
	}
}

// Rotate seals the current segment and opens the next, returning the new
// segment's index: every record appended before Rotate returns lives in a
// segment numbered below the result.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	err := l.rotateLocked()
	return l.seg, err
}

// syncTo makes every record up to at least lsn durable. Concurrent callers
// group-commit: whoever wins syncMu flushes and syncs everything appended
// so far, and the rest observe syncedLSN and return without a syscall.
// The fdatasync itself runs OUTSIDE the append lock — only the buffer
// flush holds mu — so appenders keep committing while the disk syncs. A
// concurrent rotation may retire or drop the captured file mid-sync; that
// is safe because it leaves the close to this cycle (see Log.syncing).
func (l *Log) syncTo(lsn uint64) error {
	if l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	target := l.lsn
	err := l.bw.Flush()
	// Oldest first: every byte of records ≤ target is in (retired..., f).
	files := append(slices.Clone(l.retired), l.f)
	l.syncing = true
	l.mu.Unlock()
	for _, f := range files {
		if err == nil {
			err = fdatasync(f)
		}
	}
	l.mu.Lock()
	l.syncing = false
	done := l.dropped
	l.dropped = nil
	if err == nil {
		done = append(done, files[:len(files)-1]...)
		l.retired = l.retired[len(files)-1:] // rotation only appends behind these
	}
	l.mu.Unlock()
	for _, f := range done {
		f.Close() // durable, or beyond saving: nothing left to lose in a close error
	}
	if err != nil {
		// The retirees stay queued: the next cycle syncs them again before
		// it can advance syncedLSN past their records — dropping one would
		// be a false group-commit acknowledgement.
		l.errs.Add(1)
		return err
	}
	l.syncs.Add(1)
	l.syncedLSN.Store(target)
	return nil
}

// Sync flushes and fdatasyncs everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.lsn
	l.mu.Unlock()
	return l.syncTo(lsn)
}

// Close flushes, syncs — whatever the policy, so a clean shutdown loses
// nothing — and closes every open segment. A second Close is a no-op.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.bw.Flush()
	for _, f := range append(l.retired, l.f) {
		err = errors.Join(err, fdatasync(f), f.Close())
	}
	l.retired = nil
	return err
}

// Stats is a snapshot of a Log: the segment being appended to, records
// appended, I/O failures — appends that failed (each failed its caller)
// plus flush, sync and close errors around rotation, which may have lost
// records of the preceding unsynced window — and fdatasync cycles.
type Stats struct {
	Segment, Appends, Errors, Syncs uint64
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Segment: l.seg, Appends: l.appends.Load(), Errors: l.errs.Load(), Syncs: l.syncs.Load()}
}

// InjectWriteFault is the fault seam this package's tests and its owners'
// tests share: the current segment takes pass more bytes, then every write
// to it fails — a full disk, leaving a really torn frame in the file.
// Rotation onto a fresh segment heals it. TESTS ONLY, exported because the
// tsdb and fed tests need it (TestInjectWriteFaultIsTestOnly keeps other
// callers out); the faultfs seam (ROADMAP 5c) replaces it.
func (l *Log) InjectWriteFault(pass int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bw.Flush()
	l.bw.Reset(&faultWriter{f: l.f, pass: pass})
}

type faultWriter struct {
	f    *os.File
	pass int
}

func (w *faultWriter) Write(b []byte) (int, error) {
	n, _ := w.f.Write(b[:min(len(b), w.pass)])
	if w.pass -= n; n < len(b) {
		return n, errors.New("seglog: injected write failure")
	}
	return n, nil
}
