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
// not line protocol, because the WAL rides the hot write path, where every
// float formatted as text would be paid on every write. Each segment
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
// without context from truncated segments. The same encoder (pointEncoder)
// writes the federation's records and the checkpoint files, resetting per
// record instead of per segment. The tear policy is at replayWAL.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"slices"

	"ruru/internal/seglog"
)

// FsyncPolicy selects when WAL appends are made durable: the segment log's
// policies (see seglog.SyncPolicy for the data-loss window each buys)
// under the names this package exports. FsyncInterval is the default; its
// background flusher syncs every fsyncInterval (100ms).
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

const walDirName = "wal"

// walSegmentBytes caps one WAL segment file; a variable so tests can force
// rotation.
var walSegmentBytes int64 = 64 << 20

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

// shapeKey appends a point's shape: name, tag count, tags, field count and
// the ordered field keys, every string length-prefixed. It is both the
// injective dictionary key (no separator can be forged by key contents)
// and the body of the shape's define entry.
func shapeKey(buf []byte, p *Point) []byte {
	buf = binary.AppendUvarint(appendString(buf, p.Name), uint64(len(p.Tags)))
	for _, t := range p.Tags {
		buf = appendString(appendString(buf, t.Key), t.Value)
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

// walDecoder decodes an entry stream: one WAL segment's, or one self-
// contained record's. A fresh decoder per segment or record mirrors the
// writer's dictionary reset.
type walDecoder struct {
	shapes []walShape
	p      Point // every sample is decoded into it
}

// decode hands every sample of payload to fn, in order, and fails with
// errWALDecode at the first malformed entry; points already handed to fn
// stand.
func (d *walDecoder) decode(payload []byte, fn func(*Point) error) error {
	for len(payload) > 0 {
		rest, sample, err := d.next(payload)
		if err != nil {
			return err
		}
		if payload = rest; sample {
			if err := fn(&d.p); err != nil {
				return err
			}
		}
	}
	return nil
}

// next decodes the entry at the head of payload and returns the rest. A
// define registers its shape; a sample fills d.p and reports sample.
func (d *walDecoder) next(payload []byte) (rest []byte, sample bool, err error) {
	if len(payload) == 0 {
		return nil, false, errWALDecode
	}
	kind, data, bad := payload[0], payload[1:], false
	uvarint := func() uint64 {
		n, w := binary.Uvarint(data)
		if w <= 0 {
			bad = true
			return 0
		}
		data = data[w:]
		return n
	}
	str := func() string {
		n := uvarint()
		if n > uint64(len(data)) {
			bad = true
			return ""
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	id := uvarint()
	switch {
	case bad:
	case kind == walEntryDefine && id == uint64(len(d.shapes)): // ids are sequential
		sh := walShape{name: str()}
		for i, n := uint64(0), uvarint(); i < n && !bad; i++ {
			sh.tags = append(sh.tags, Tag{Key: str(), Value: str()})
		}
		for i, n := uint64(0), uvarint(); i < n && !bad; i++ {
			sh.fieldKeys = append(sh.fieldKeys, str())
		}
		if !bad {
			sh.prev = make([]uint64, len(sh.fieldKeys))
			d.shapes = append(d.shapes, sh)
			return data, false, nil
		}
	case kind == walEntrySample && id < uint64(len(d.shapes)):
		sh, p := &d.shapes[id], &d.p
		p.Name, p.Tags, p.Fields = sh.name, append(p.Tags[:0], sh.tags...), p.Fields[:0]
		for i, k := range sh.fieldKeys {
			b := bits.ReverseBytes64(uvarint()) ^ sh.prev[i]
			sh.prev[i] = b
			p.Fields = append(p.Fields, Field{Key: k, Value: math.Float64frombits(b)})
		}
		if dt, w := binary.Varint(data); !bad && w > 0 {
			sh.prevTime += dt
			p.Time = sh.prevTime
			return data[w:], true, nil
		}
	}
	return nil, false, errWALDecode
}

// pointEncoder is the one shape dictionary behind every record this package
// writes. The WAL resets it at every segment, RecordEncoder and checkpoints
// at every record, so whatever was encoded since a reset decodes stand-alone.
type pointEncoder struct {
	// dict maps a point shape (shapeKey) to its id since the last reset, and
	// state[id] holds that shape's delta-coding state (storage reused).
	dict   map[string]uint64
	state  []shapeEnc
	keyBuf []byte // shapeKey build buffer
	// last-shape cache: consecutive points of one series (the common case
	// in a sink batch or a dump chunk) skip the shapeKey build and map
	// lookup entirely. The string comparisons short-circuit on pointer
	// equality when the caller reuses its tag/field structures.
	lastValid     bool
	lastID        uint64
	lastName      string
	lastTags      []Tag
	lastFieldKeys []string
}

// reset forgets every shape: the next point defines its shape again.
func (e *pointEncoder) reset() {
	clear(e.dict)
	e.state = e.state[:0]
	e.lastValid = false
}

// sameAsLast reports whether p has the cached last shape.
func (e *pointEncoder) sameAsLast(p *Point) bool {
	if p.Name != e.lastName || len(p.Tags) != len(e.lastTags) ||
		len(p.Fields) != len(e.lastFieldKeys) {
		return false
	}
	for i, t := range p.Tags {
		if t.Key != e.lastTags[i].Key || t.Value != e.lastTags[i].Value {
			return false
		}
	}
	for i, f := range p.Fields {
		if f.Key != e.lastFieldKeys[i] {
			return false
		}
	}
	return true
}

// appendPoint appends one point's entries: a define the first time its
// shape appears since the last reset, then the sample.
func (e *pointEncoder) appendPoint(buf []byte, p *Point) []byte {
	if e.lastValid && e.sameAsLast(p) {
		return appendSample(buf, e.lastID, p, &e.state[e.lastID])
	}
	e.keyBuf = shapeKey(e.keyBuf[:0], p)
	id, ok := e.dict[string(e.keyBuf)]
	if !ok {
		if e.dict == nil {
			e.dict = make(map[string]uint64, 64)
		}
		id = uint64(len(e.dict))
		e.dict[string(e.keyBuf)] = id
		e.state = slices.Grow(e.state, 1)[:id+1]
		st := &e.state[id]
		st.prevTime, st.prev = 0, append(st.prev[:0], make([]uint64, len(p.Fields))...)
		buf = append(binary.AppendUvarint(append(buf, walEntryDefine), id), e.keyBuf...)
	}
	e.lastValid, e.lastID, e.lastName = true, id, p.Name
	e.lastTags = append(e.lastTags[:0], p.Tags...)
	e.lastFieldKeys = e.lastFieldKeys[:0]
	for _, f := range p.Fields {
		e.lastFieldKeys = append(e.lastFieldKeys, f.Key)
	}
	return appendSample(buf, id, p, &e.state[id])
}

// wal is the TSDB's use of the segment log: what a record's payload means.
// The encoder's dictionary is scoped to one segment and guarded by the
// log's append lock: only the encode callback and the OnSegment hook touch
// it.
type wal struct {
	log *seglog.Log
	enc pointEncoder
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
func openWAL(dir string, firstFree uint64, policy FsyncPolicy, afterTear bool) (*wal, error) {
	w := &wal{}
	var err error
	w.log, err = seglog.Open(dir, walFormat(), firstFree, seglog.Options{
		MaxSegmentBytes: walSegmentBytes,
		Sync:            policy,
		AfterTear:       afterTear,
		OnSegment:       func(uint64) { w.enc.reset() }, // every segment re-defines the shapes it uses
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// AppendPoints logs one committed write as a single record. A batch
// above maxRecordBytes is refused with seglog.ErrRecordTooBig; logBatch
// splits it in response.
func (w *wal) AppendPoints(pts []Point) error {
	return w.log.Append(func(buf []byte) []byte {
		for i := range pts {
			buf = w.enc.appendPoint(buf, &pts[i])
		}
		return buf
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
	records, stop, err := walFormat().Scan(path, func(payload []byte) error {
		if seglog.IsTearAck(payload) {
			return nil // carries nothing; replayWAL reads it from the outside
		}
		err := dec.decode(payload, point)
		if errors.Is(err, errWALDecode) {
			// A CRC-valid record with a bad encoding is corruption, not a tear.
			err = fmt.Errorf("%w: replay: %v", ErrWALCorrupt, err)
		}
		return err
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
