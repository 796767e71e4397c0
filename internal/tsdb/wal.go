package tsdb

// The write-ahead log: the append-only half of the durability subsystem
// (persist.go holds the checkpoint/restore half).
//
// Layout: Options.Persist.Dir/wal/ holds numbered segment files
// (00000001.wal, 00000002.wal, ...). Each segment starts with an 8-byte
// magic and then carries CRC-framed records:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// One record is one committed write: the batch of points the Write or
// WriteBatch carried, in a dictionary-compressed binary encoding — binary,
// not line protocol, because the WAL rides the hot write path, where float
// formatting alone would blow the E13 ≤15%-overhead target, and byte
// volume is the binding constraint once the disk's
// buffered-write throughput saturates. Each segment carries its own series
// dictionary: the first point of a (name, tags, field-key-set) shape emits
// a define entry with the strings, and every subsequent point of that
// shape is a sample entry of roughly
//
//	[1B kind][uvarint shape id][uvarint per field][varint time delta]
//
// Sample values are delta-compressed Gorilla-style against the shape's
// previous sample: timestamps as zigzag-varint deltas, float fields as
// the XOR of their bit patterns (byte-reversed so the leading-zero high
// bytes of similar values varint-encode short — an unchanged value costs
// one byte). Together the dictionary and delta coding cut a steady-state
// point to ~10–15 bytes, an order of magnitude under re-encoding the
// strings — and byte volume is what binds the write path once the disk's
// buffered throughput saturates. All per-shape state (dictionary ids,
// previous time/values) resets at every segment boundary, so a segment is
// always decodable on its own — replay can start at any checkpoint cut
// without context from truncated segments. Checkpoint files, written off
// the hot path, stay in interoperable line protocol. The CRC frame is
// what makes a torn tail detectable.
//
// Group commit: appends serialize under mu; Sync (fsync=always) lets
// concurrent committers piggyback on one fsync — each waiter re-checks the
// synced LSN under syncMu and only the first one behind it pays the
// syscall, covering everything appended up to that instant.
//
// Torn-tail contract: a crash can leave the final record of the final
// segment incomplete. replaySegment stops cleanly at the first frame whose
// header is short, whose length is implausible, or whose CRC mismatches —
// in the FINAL segment that is expected (ErrWALTorn, data up to the tear is
// kept); in any earlier segment it is real corruption (ErrWALCorrupt) and
// open fails rather than silently dropping the segments behind it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// FsyncPolicy selects when WAL appends are made durable.
type FsyncPolicy string

const (
	// FsyncInterval (the default) leaves appends buffered and has a
	// background flusher fsync every PersistOptions.FsyncInterval: bounded
	// data-loss window, near-in-memory write latency.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncAlways fsyncs before a write returns (group-committed across
	// concurrent writers): zero committed-data loss on power failure, at
	// the cost of an fsync on the write path.
	FsyncAlways FsyncPolicy = "always"
	// FsyncOff writes each record through to the OS (one write syscall per
	// batch) but never fsyncs: survives process crashes, not power loss.
	FsyncOff FsyncPolicy = "off"
)

var (
	// ErrWALTorn reports a torn final record at the tail of the last
	// segment — the expected shape of a crash mid-append. Replay keeps
	// everything before the tear.
	ErrWALTorn = errors.New("tsdb: torn WAL tail")
	// ErrWALCorrupt reports a bad frame in a non-final segment: data after
	// it would be silently lost, so open fails instead.
	ErrWALCorrupt = errors.New("tsdb: corrupt WAL segment")
)

const (
	walDirName      = "wal"
	walSuffix       = ".wal"
	walMagic        = "RUWAL001"
	walHeaderBytes  = 8
	walFrameBytes   = 8 // 4B length + 4B CRC
	defaultSegBytes = 64 << 20
)

// maxRecordBytes bounds a single frame on both sides: the writer refuses
// (errWALRecordTooBig — logBatch splits oversized batches in response) and
// the reader treats anything larger in a header as a tear/corruption, not
// an allocation request. It must stay far below the frame's 4 GiB uint32
// length limit. A var only so tests can shrink it.
var maxRecordBytes = int64(256 << 20)

// errWALRecordTooBig reports a single record that would exceed
// maxRecordBytes; the caller splits the batch and retries.
var errWALRecordTooBig = errors.New("tsdb: WAL record exceeds frame limit")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Entry kinds within a record payload.
const (
	walEntryDefine = 0 // uvarint id, name, tags, field keys (all length-prefixed)
	walEntrySample = 1 // uvarint id, per-field XOR uvarints, varint time delta
	// walEntryTornPrev, written as the first record of a segment opened by
	// an error-rotation, acknowledges that the PREVIOUS segment may end in
	// a torn frame: replay tolerates that tear (it would otherwise read as
	// mid-stream corruption, since the previous segment is no longer the
	// final one) and skips the marker itself.
	walEntryTornPrev = 2
)

var errWALDecode = errors.New("tsdb: bad WAL point encoding")

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// shapeKey builds the injective dictionary key of a point's shape: name,
// tags and the ordered field-key set, all length-prefixed (so no separator
// can be forged by key contents).
func shapeKey(buf []byte, p *Point) []byte {
	buf = appendString(buf, p.Name)
	for _, t := range p.Tags {
		buf = appendString(buf, t.Key)
		buf = appendString(buf, t.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Fields)))
	for _, f := range p.Fields {
		buf = appendString(buf, f.Key)
	}
	return buf
}

// appendDefine emits a dictionary entry for a new shape.
func appendDefine(buf []byte, id uint64, p *Point) []byte {
	buf = append(buf, walEntryDefine)
	buf = binary.AppendUvarint(buf, id)
	buf = appendString(buf, p.Name)
	buf = binary.AppendUvarint(buf, uint64(len(p.Tags)))
	for _, t := range p.Tags {
		buf = appendString(buf, t.Key)
		buf = appendString(buf, t.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Fields)))
	for _, f := range p.Fields {
		buf = appendString(buf, f.Key)
	}
	return buf
}

// shapeEnc is the write-side delta state of one shape within the current
// segment: the previous sample's timestamp and field bit patterns.
type shapeEnc struct {
	prevTime int64
	prev     []uint64
}

// appendSample emits one point against an already-defined shape, delta-
// coded against (and updating) the shape's state.
func appendSample(buf []byte, id uint64, p *Point, st *shapeEnc) []byte {
	buf = append(buf, walEntrySample)
	buf = binary.AppendUvarint(buf, id)
	for i, f := range p.Fields {
		b := math.Float64bits(f.Value)
		// Byte-reverse the XOR so similar values' leading-zero high bytes
		// become trailing zeros and the uvarint stays short (0 = 1 byte).
		buf = binary.AppendUvarint(buf, bits.ReverseBytes64(b^st.prev[i]))
		st.prev[i] = b
	}
	buf = binary.AppendVarint(buf, p.Time-st.prevTime)
	st.prevTime = p.Time
	return buf
}

// walShape is a decoded dictionary entry on the replay side, carrying the
// same delta state the writer kept.
type walShape struct {
	name      string
	tags      []Tag // sorted (points are tag-sorted before logging)
	fieldKeys []string
	prevTime  int64
	prev      []uint64
}

// walDecoder decodes one segment's entry stream. A fresh decoder per
// segment mirrors the per-segment dictionary reset on the write side.
type walDecoder struct {
	shapes []walShape
}

// next decodes the next entry from payload. A define returns (rest, false,
// nil) after registering the shape; a sample fills p and returns (rest,
// true, nil).
func (d *walDecoder) next(payload []byte, p *Point) (rest []byte, sample bool, err error) {
	if len(payload) == 0 {
		return nil, false, errWALDecode
	}
	kind := payload[0]
	data := payload[1:]
	if kind == walEntryTornPrev {
		return data, false, nil // tear acknowledgement; carries nothing
	}
	readStr := func() (string, bool) {
		n, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < n {
			return "", false
		}
		s := string(data[w : w+int(n)])
		data = data[w+int(n):]
		return s, true
	}
	id, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, false, errWALDecode
	}
	data = data[w:]
	switch kind {
	case walEntryDefine:
		if id != uint64(len(d.shapes)) {
			return nil, false, errWALDecode // ids are sequential per segment
		}
		var sh walShape
		var ok bool
		if sh.name, ok = readStr(); !ok {
			return nil, false, errWALDecode
		}
		ntags, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, false, errWALDecode
		}
		data = data[w:]
		for i := uint64(0); i < ntags; i++ {
			var t Tag
			if t.Key, ok = readStr(); !ok {
				return nil, false, errWALDecode
			}
			if t.Value, ok = readStr(); !ok {
				return nil, false, errWALDecode
			}
			sh.tags = append(sh.tags, t)
		}
		nfields, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, false, errWALDecode
		}
		data = data[w:]
		for i := uint64(0); i < nfields; i++ {
			k, ok := readStr()
			if !ok {
				return nil, false, errWALDecode
			}
			sh.fieldKeys = append(sh.fieldKeys, k)
		}
		sh.prev = make([]uint64, len(sh.fieldKeys))
		d.shapes = append(d.shapes, sh)
		return data, false, nil
	case walEntrySample:
		if id >= uint64(len(d.shapes)) {
			return nil, false, errWALDecode
		}
		sh := &d.shapes[id]
		p.Name = sh.name
		p.Tags = append(p.Tags[:0], sh.tags...)
		p.Fields = p.Fields[:0]
		for i, k := range sh.fieldKeys {
			x, w := binary.Uvarint(data)
			if w <= 0 {
				return nil, false, errWALDecode
			}
			data = data[w:]
			b := bits.ReverseBytes64(x) ^ sh.prev[i]
			sh.prev[i] = b
			p.Fields = append(p.Fields, Field{Key: k, Value: math.Float64frombits(b)})
		}
		dt, w := binary.Varint(data)
		if w <= 0 {
			return nil, false, errWALDecode
		}
		data = data[w:]
		sh.prevTime += dt
		p.Time = sh.prevTime
		return data, true, nil
	default:
		return nil, false, errWALDecode
	}
}

// wal is the segmented append log. All mutation happens under mu; Sync
// additionally serializes under syncMu so fsyncs group-commit.
type wal struct {
	dir         string
	maxSegBytes int64
	policy      FsyncPolicy

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      uint64 // current segment index
	segBytes int64
	lsn      uint64 // records appended (monotonic)
	closed   bool
	// poisoned marks the current segment's tail as possibly mid-frame
	// (a record write failed): the next append must rotate, and the new
	// segment must open with a tear acknowledgement.
	poisoned bool
	// retired holds rotated-out segment files awaiting fsync+close by the
	// next sync cycle (empty under FsyncOff, which closes eagerly). Files
	// are only closed under syncMu, so a sync never races a close.
	retired []*os.File
	// dict maps a point shape (shapeKey) to its id in the CURRENT segment,
	// and state[id] holds that shape's delta-coding state; both reset at
	// every rotation so each segment decodes stand-alone.
	dict    map[string]uint64
	state   []shapeEnc
	scratch []byte // record payload build buffer
	keyBuf  []byte // shapeKey build buffer
	// last-shape cache: consecutive points of one series (the common case
	// in a sink batch) skip the shapeKey build and map lookup entirely.
	// The string comparisons short-circuit on pointer equality when the
	// caller reuses its tag/field structures. Invalidated by rotation.
	lastValid     bool
	lastID        uint64
	lastName      string
	lastTags      []Tag
	lastFieldKeys []string

	syncMu    sync.Mutex
	syncedLSN atomic.Uint64

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	fsyncs       atomic.Uint64
}

func segName(seg uint64) string {
	return fmt.Sprintf("%08d%s", seg, walSuffix)
}

// parseSegName returns the index encoded in a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
	return n, err == nil
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// openWAL starts appending to a fresh segment numbered after every existing
// one (a possibly-torn old tail is never appended to, so its tear stays
// detectable and everything after it stays readable).
func openWAL(dir string, firstFree uint64, maxSegBytes int64, policy FsyncPolicy) (*wal, error) {
	w := &wal{dir: dir, maxSegBytes: maxSegBytes, policy: policy}
	if w.maxSegBytes <= 0 {
		w.maxSegBytes = defaultSegBytes
	}
	if err := w.openSegment(firstFree); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates segment seg and makes it current. Caller holds mu (or
// is the constructor).
func (w *wal) openSegment(seg uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seg)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(walMagic); err != nil {
		// Remove the half-born segment so a retry does not trip O_EXCL.
		f.Close()
		os.Remove(f.Name())
		return err
	}
	w.f, w.bw, w.seg, w.segBytes = f, bw, seg, walHeaderBytes
	if w.dict == nil {
		w.dict = make(map[string]uint64, 64)
	} else {
		clear(w.dict) // every segment re-defines the shapes it uses
	}
	w.state = w.state[:0]
	w.lastValid = false
	return nil
}

// sameAsLast reports whether p has the cached last shape.
func (w *wal) sameAsLast(p *Point) bool {
	if p.Name != w.lastName || len(p.Tags) != len(w.lastTags) ||
		len(p.Fields) != len(w.lastFieldKeys) {
		return false
	}
	for i, t := range p.Tags {
		if t.Key != w.lastTags[i].Key || t.Value != w.lastTags[i].Value {
			return false
		}
	}
	for i, f := range p.Fields {
		if f.Key != w.lastFieldKeys[i] {
			return false
		}
	}
	return true
}

// encodeOneLocked appends one point's entries to a record payload: a
// define the first time its shape appears in this segment, then the
// sample. Caller holds mu.
func (w *wal) encodeOneLocked(payload []byte, p *Point) []byte {
	if w.lastValid && w.sameAsLast(p) {
		return appendSample(payload, w.lastID, p, &w.state[w.lastID])
	}
	w.keyBuf = shapeKey(w.keyBuf[:0], p)
	id, ok := w.dict[string(w.keyBuf)]
	if !ok {
		id = uint64(len(w.dict))
		w.dict[string(w.keyBuf)] = id
		w.state = append(w.state, shapeEnc{prev: make([]uint64, len(p.Fields))})
		payload = appendDefine(payload, id, p)
	}
	w.lastValid, w.lastID, w.lastName = true, id, p.Name
	w.lastTags = append(w.lastTags[:0], p.Tags...)
	w.lastFieldKeys = w.lastFieldKeys[:0]
	for _, f := range p.Fields {
		w.lastFieldKeys = append(w.lastFieldKeys, f.Key)
	}
	return appendSample(payload, id, p, &w.state[id])
}

// appendRecord encodes one committed write via encode, rotating first if
// the segment is full (and re-encoding, since rotation resets the
// dictionary), and writes the CRC-framed record. Under FsyncAlways it
// returns only after the record is fsynced (group-committed); under
// FsyncOff it is flushed to the OS; under FsyncInterval it may sit in the
// buffer until the flusher's next tick.
func (w *wal) appendRecord(encode func(buf []byte) []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosedDB
	}
	payload := encode(w.scratch[:0])
	if int64(len(payload)) > maxRecordBytes {
		// Refuse rather than write a frame replay would reject. The
		// dictionary may claim defines this record never wrote, so poison:
		// the next append rotates onto a fresh segment and dictionary.
		w.scratch = payload[:0]
		w.poisoned = true
		w.segBytes = w.maxSegBytes + 1
		w.mu.Unlock()
		w.appendErrors.Add(1)
		return errWALRecordTooBig
	}
	if w.segBytes+walFrameBytes+int64(len(payload)) > w.maxSegBytes && w.segBytes > walHeaderBytes {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			w.appendErrors.Add(1)
			return err
		}
		// Rotation reset the dictionary: re-encode so this record carries
		// its own defines in the new segment.
		payload = encode(payload[:0])
	}
	w.scratch = payload[:0]
	err := w.writeRecordLocked(payload)
	if err != nil {
		// The tail of this segment may now hold a partial frame and the
		// dictionary may claim defines that never hit the stream: poison
		// the segment so the next append rotates to a clean one (which
		// will carry the tear acknowledgement for this segment's tail).
		w.poisoned = true
		w.segBytes = w.maxSegBytes + 1
		w.mu.Unlock()
		w.appendErrors.Add(1)
		return err
	}
	w.lsn++
	lsn := w.lsn
	w.mu.Unlock()
	w.appends.Add(1)
	if w.policy == FsyncAlways {
		return w.syncTo(lsn)
	}
	return nil
}

// writeRecordLocked frames and writes one payload. Caller holds mu.
func (w *wal) writeRecordLocked(payload []byte) error {
	var hdr [walFrameBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	if w.policy == FsyncOff {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	w.segBytes += walFrameBytes + int64(len(payload))
	return nil
}

// AppendPoints logs one committed WriteBatch as a single record.
func (w *wal) AppendPoints(pts []Point) error {
	return w.appendRecord(func(buf []byte) []byte {
		for i := range pts {
			buf = w.encodeOneLocked(buf, &pts[i])
		}
		return buf
	})
}

// AppendPoint logs one committed Write as a single record.
func (w *wal) AppendPoint(p *Point) error {
	return w.appendRecord(func(buf []byte) []byte {
		return w.encodeOneLocked(buf, p)
	})
}

// syncTo makes every record up to at least lsn durable. Concurrent callers
// group-commit: whoever wins syncMu flushes and fsyncs everything appended
// so far, and the rest observe syncedLSN and return without a syscall.
// The fsync itself runs OUTSIDE the append lock — only the buffer flush
// holds mu — so writers keep committing while the disk syncs; this is what
// keeps the fsync=interval write path within its overhead budget. A
// concurrent rotation may retire the captured file mid-sync; that is safe
// because files are only closed here, under syncMu.
func (w *wal) syncTo(lsn uint64) error {
	if w.syncedLSN.Load() >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedLSN.Load() >= lsn {
		return nil
	}
	w.mu.Lock()
	target := w.lsn
	err := w.bw.Flush()
	f := w.f
	retired := w.retired
	w.retired = nil
	w.mu.Unlock()
	// On any failure, hand the not-yet-synced retirees back (ahead of any
	// newer ones) so the next cycle retries them: dropping one would leak
	// its descriptor AND let a later cycle advance syncedLSN past records
	// that were never made durable — a false group-commit acknowledgement.
	requeue := func(from int) {
		w.mu.Lock()
		w.retired = append(append([]*os.File{}, retired[from:]...), w.retired...)
		w.mu.Unlock()
	}
	if err != nil {
		requeue(0)
		w.appendErrors.Add(1)
		return err
	}
	// Oldest first: every byte of records ≤ target is in (retired..., f).
	for i, r := range retired {
		if e := fdatasync(r); e != nil {
			requeue(i)
			w.appendErrors.Add(1)
			return e
		}
		r.Close() // data is durable; nothing left to lose in a close error
	}
	if err = fdatasync(f); err != nil {
		w.appendErrors.Add(1)
		return err
	}
	w.fsyncs.Add(1)
	w.syncedLSN.Store(target)
	return nil
}

// Sync flushes and fsyncs everything appended so far (the interval
// flusher's tick, and the Close path).
func (w *wal) Sync() error {
	w.mu.Lock()
	lsn := w.lsn
	w.mu.Unlock()
	if lsn == 0 {
		return nil
	}
	return w.syncTo(lsn)
}

// rotateLocked finishes the current segment and starts the next. Caller
// holds mu. No fsync here (it would stall every committer behind the
// rotation): under FsyncAlways/FsyncInterval the old file is retired for
// the next sync cycle to fsync and close; FsyncOff never fsyncs, so the
// file is closed eagerly.
//
// A flush failure on the old segment does NOT abort the rotation:
// bufio.Writer errors are sticky, so the only way back to a working log
// is a fresh segment with a fresh writer. The failed buffer's records are
// gone from the log — counted in appendErrors, which is the signal the
// runbook alerts on — and rotation proceeds so the NEXT append lands
// cleanly instead of the WAL staying wedged forever on a transient error
// (e.g. ENOSPC that was later cleared). Because the abandoned segment may
// end mid-frame and will no longer be the final segment on disk, the new
// segment opens with a walEntryTornPrev record acknowledging the tear —
// without it, the next open would misread the tail as mid-stream
// corruption and refuse to start.
func (w *wal) rotateLocked() error {
	tear := w.poisoned
	if err := w.bw.Flush(); err != nil {
		w.appendErrors.Add(1)
		tear = true
		// The stream may end mid-frame: close now rather than retiring a
		// broken segment for a later fsync.
		w.f.Close()
	} else if w.policy == FsyncOff {
		if err := w.f.Close(); err != nil {
			w.appendErrors.Add(1)
		}
	} else {
		w.retired = append(w.retired, w.f)
	}
	if err := w.openSegment(w.seg + 1); err != nil {
		return err
	}
	w.poisoned = false
	if tear {
		if err := w.writeRecordLocked([]byte{walEntryTornPrev}); err != nil {
			// Still failing: poison again so the next append rotates again.
			w.poisoned = true
			w.segBytes = w.maxSegBytes + 1
			w.appendErrors.Add(1)
			return err
		}
	}
	return nil
}

// Rotate seals the current segment and opens the next; returns the new
// segment's index. The checkpoint cut: every record appended before Rotate
// returns lives in a segment numbered below the result.
func (w *wal) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosedDB
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seg, nil
}

// Close flushes, fsyncs and closes the current segment and any retired
// ones awaiting their sync cycle.
func (w *wal) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.bw.Flush()
	for _, r := range w.retired {
		if e := fdatasync(r); err == nil {
			err = e
		}
		if e := r.Close(); err == nil {
			err = e
		}
	}
	w.retired = nil
	if e := fdatasync(w.f); err == nil {
		err = e
	}
	if e := w.f.Close(); err == nil {
		err = e
	}
	return err
}

// removeSegmentsBelow deletes segments with index < bound (the ones a
// checkpoint has superseded).
func removeSegmentsBelow(dir string, bound uint64) (removed int, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if s >= bound {
			break
		}
		if e := os.Remove(filepath.Join(dir, segName(s))); e != nil && err == nil {
			err = e
			continue
		}
		removed++
	}
	return removed, err
}

// segmentStartsWithTear reports whether the segment's first record is a
// tear acknowledgement — i.e. the previous segment was abandoned by an
// error-rotation and its torn tail is expected, not corruption.
func segmentStartsWithTear(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [walHeaderBytes + walFrameBytes + 1]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	if string(head[:walHeaderBytes]) != walMagic {
		return false
	}
	length := binary.LittleEndian.Uint32(head[walHeaderBytes : walHeaderBytes+4])
	payload := head[walHeaderBytes+walFrameBytes:]
	return length == 1 &&
		crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(head[walHeaderBytes+4:walHeaderBytes+8]) &&
		payload[0] == walEntryTornPrev
}

// replaySegment streams one segment's records to apply. final marks the
// last segment on disk: only there is a bad frame a tolerable tear
// (ErrWALTorn) rather than fatal corruption (ErrWALCorrupt).
func replaySegment(path string, final bool, apply func(payload []byte) error) (records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var magic [walHeaderBytes]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != walMagic {
		if final {
			return 0, ErrWALTorn
		}
		return 0, fmt.Errorf("%w: %s: bad magic", ErrWALCorrupt, filepath.Base(path))
	}
	torn := func(why string) (int, error) {
		if final {
			return records, ErrWALTorn
		}
		return records, fmt.Errorf("%w: %s: %s", ErrWALCorrupt, filepath.Base(path), why)
	}
	var hdr [walFrameBytes]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return records, nil // clean end
			}
			return torn("short frame header")
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(length) > maxRecordBytes {
			return torn("implausible record length")
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return torn("short record body")
		}
		if crc32.Checksum(payload, crcTable) != want {
			return torn("CRC mismatch")
		}
		if err := apply(payload); err != nil {
			return records, err
		}
		records++
	}
}
