package tsdb

// The write-ahead log: the append-only half of the durability subsystem
// (persist.go holds the checkpoint/restore half).
//
// The files are a segment log (internal/seglog, which owns naming, the
// CRC frame, the sync policies, rotation and what follows a failed write):
// Options.Persist.Dir/wal/ holds 00000001.wal, 00000002.wal, ... with magic
// RUWAL001. This file is what a record MEANS and what a tear means to the
// database.
//
// One record is one committed write: the batch of points the Write or
// WriteBatch carried, in a dictionary-compressed binary encoding — binary,
// not line protocol, because the WAL rides the hot write path, where float
// formatting alone would blow the E13 ≤15%-overhead target. Each segment
// carries its own series dictionary: the first point of a (name, tags,
// field-key-set) shape emits a define entry with the strings, and every
// subsequent point of that shape is a sample entry of roughly
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
// the hot path, stay in interoperable line protocol. The tear policy is
// at replayWAL.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"

	"ruru/internal/seglog"
)

// FsyncPolicy selects when WAL appends are made durable: the segment log's
// policies (see seglog.SyncPolicy for the data-loss window each buys)
// under the names this package exports. FsyncInterval is the default; its
// background flusher syncs every PersistOptions.FsyncInterval.
type FsyncPolicy = seglog.SyncPolicy

const (
	FsyncInterval = seglog.SyncInterval
	FsyncAlways   = seglog.SyncAlways
	FsyncOff      = seglog.SyncOff
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
	defaultSegBytes = 64 << 20
)

// maxRecordBytes bounds a single WAL record: the log refuses a larger one
// (seglog.ErrRecordTooBig — logBatch splits oversized batches in response)
// and replay treats anything larger in a frame header as a tear, not an
// allocation request. A var only so tests can shrink it.
var maxRecordBytes = int64(256 << 20)

// Entry kinds within a record payload.
const (
	walEntryDefine = 0 // uvarint id, name, tags, field keys (all length-prefixed)
	walEntrySample = 1 // uvarint id, per-field XOR uvarints, varint time delta
	// 2 never starts a record of ours: it is the segment log's tear
	// acknowledgement (seglog.IsTearAck), which replaySegment skips.
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

// wal is the TSDB's use of the segment log: what a record's payload means.
// The dictionary state is scoped to one segment and guarded by the log's
// append lock: only the encode callback and the OnSegment hook touch it.
type wal struct {
	log *seglog.Log
	// dict maps a point shape (shapeKey) to its id in the CURRENT segment,
	// and state[id] holds that shape's delta-coding state; both reset at
	// every rotation so each segment decodes stand-alone.
	dict   map[string]uint64
	state  []shapeEnc
	keyBuf []byte // shapeKey build buffer
	// last-shape cache: consecutive points of one series (the common case
	// in a sink batch) skip the shapeKey build and map lookup entirely.
	// The string comparisons short-circuit on pointer equality when the
	// caller reuses its tag/field structures. Invalidated by rotation.
	lastValid     bool
	lastID        uint64
	lastName      string
	lastTags      []Tag
	lastFieldKeys []string
}

// walFormat names the WAL's files. Built per call because tests shrink
// maxRecordBytes.
func walFormat() seglog.Format {
	return seglog.Format{Suffix: ".wal", Magic: "RUWAL001", MaxRecord: maxRecordBytes}
}

// openWAL starts appending to a fresh segment numbered after every existing
// one (a possibly-torn old tail is never appended to, so its tear stays
// detectable and everything after it stays readable). After a tolerated
// tear the new segment acknowledges it, or the NEXT open — where the torn
// segment is no longer the final one — would refuse it.
func openWAL(dir string, firstFree uint64, maxSegBytes int64, policy FsyncPolicy, afterTear bool) (*wal, error) {
	if maxSegBytes <= 0 {
		maxSegBytes = defaultSegBytes
	}
	w := &wal{dict: make(map[string]uint64, 64)}
	var err error
	w.log, err = seglog.Open(dir, walFormat(), firstFree, seglog.Options{
		MaxSegmentBytes: maxSegBytes,
		Sync:            policy,
		AfterTear:       afterTear,
		OnSegment: func(uint64) {
			clear(w.dict) // every segment re-defines the shapes it uses
			w.state = w.state[:0]
			w.lastValid = false
		},
	})
	if err != nil {
		return nil, err
	}
	return w, nil
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

// encodeOne appends one point's entries to a record payload: a define the
// first time its shape appears in this segment, then the sample. Runs
// under the log's append lock.
func (w *wal) encodeOne(payload []byte, p *Point) []byte {
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

// AppendPoints logs one committed WriteBatch as a single record. A batch
// above maxRecordBytes is refused with seglog.ErrRecordTooBig; logBatch
// splits it in response.
func (w *wal) AppendPoints(pts []Point) error {
	return w.log.Append(func(buf []byte) []byte {
		for i := range pts {
			buf = w.encodeOne(buf, &pts[i])
		}
		return buf
	})
}

// AppendPoint logs one committed Write as a single record. Caller holds
// db.commitMu.RLock; same error contract as logBatch.
func (w *wal) AppendPoint(p *Point) error {
	return w.log.Append(func(buf []byte) []byte {
		return w.encodeOne(buf, p)
	})
}

// replayWAL hands every logged point of the segments ≥ from to point, in
// log order, and reports the records it read, whether it tolerated a tear
// and the highest segment index on disk (0 when there is none). This is
// the WAL's tear policy: a crash can leave the final record of the FINAL
// segment incomplete, which is expected; a bad frame in an earlier segment
// is tolerated only when the next segment opens with a tear
// acknowledgement (it was abandoned by a failed write, see seglog, or is
// the tear an earlier open already tolerated, see openWAL); anywhere else
// data behind it would be silently lost, so replay fails with
// ErrWALCorrupt instead.
func replayWAL(dir string, from uint64, point func(*Point) error) (records int, torn bool, last uint64, err error) {
	f := walFormat()
	segs, err := f.Segments(dir)
	if err != nil {
		return 0, false, 0, err
	}
	for i, seg := range segs {
		last = seg
		if seg < from {
			continue // superseded by the checkpoint, awaiting truncation
		}
		final := i == len(segs)-1
		n, err := replaySegment(f.SegmentPath(dir, seg), final, point)
		records += n
		if errors.Is(err, ErrWALTorn) ||
			errors.Is(err, ErrWALCorrupt) && !final && f.StartsWithTearAck(f.SegmentPath(dir, segs[i+1])) {
			torn = true
			continue
		}
		if err != nil {
			return records, torn, last, err
		}
	}
	return records, torn, last, nil
}

// replaySegment decodes one segment's records and hands each sample to
// point. A fresh decoder per segment mirrors the writer's dictionary reset
// at every rotation. final marks the last segment on disk: only there is a
// bad frame a tolerable tear (ErrWALTorn) rather than corruption
// (ErrWALCorrupt).
func replaySegment(path string, final bool, point func(*Point) error) (records int, err error) {
	var dec walDecoder
	var p Point
	records, stop, err := walFormat().Scan(path, func(payload []byte) error {
		if seglog.IsTearAck(payload) {
			return nil // carries nothing; replayWAL reads it from the outside
		}
		for len(payload) > 0 {
			rest, sample, err := dec.next(payload, &p)
			if err != nil {
				// A CRC-valid record with a bad encoding is corruption,
				// not a tear.
				return fmt.Errorf("%w: replay: %v", ErrWALCorrupt, err)
			}
			payload = rest
			if sample {
				if err := point(&p); err != nil {
					return err
				}
			}
		}
		return nil
	})
	switch {
	case err != nil || stop == seglog.StopEOF:
		return records, err
	case final:
		return records, ErrWALTorn
	default:
		return records, fmt.Errorf("%w: %s: %s", ErrWALCorrupt, filepath.Base(path), stop)
	}
}
