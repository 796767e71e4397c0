package fed

// The probe's on-disk spool: every batch is appended here, with its
// sequence number, before it is eligible to be sent — so a probe that
// crashes (kill -9 included) reloads its unacked batches on restart and
// resends them, and an acked batch can be forgotten everywhere.
//
// Layout under the spool directory:
//
//	00000001.sp ...   a segment log (internal/seglog, magic RUSP0002) whose
//	                  record payload is [8B seq][record]
//	ACKED             highest acked seq, written atomically (tmp+rename),
//	                  throttled — it may lag the true ack watermark, which
//	                  is safe: resending an acked batch is a no-op at the
//	                  aggregator's dedup, and the hello ack re-syncs the
//	                  probe on connect.
//
// The log runs under seglog.SyncOff: each record is flushed to the OS as it
// is appended, so a process crash loses at most the record being written —
// which was never acked. No fsync: the spool protects against process
// death, not power loss; the aggregator's WAL owns power-loss durability
// once a batch is acked. The spool's tear policy: a bad frame ends that
// segment and is counted in tornTail, never fatal. So is a segment without
// the magic, one from before the spool moved onto seglog (RUSP0001)
// included, which is then removed: its measurements are already in the
// probe's own TSDB, and the hello ack re-syncs the watermark.
//
// The spool is not safe for concurrent use; the Probe serializes access
// under its own mutex.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ruru/internal/seglog"
)

const (
	spoolSeqBytes = 8
	ackedName     = "ACKED"
	// ackPersistEvery throttles ACKED rewrites: persist when the watermark
	// has advanced this many batches past the persisted value (and always
	// on segment pruning and Close).
	ackPersistEvery = 32
)

// spoolSegmentBytes caps one spool segment file the probe opens; a
// variable so tests can force rotation.
var spoolSegmentBytes int64 = 4 << 20

// spoolFormat names the spool's files. The disk bound is the wire bound
// plus the sequence number in front of the record.
var spoolFormat = seglog.Format{Suffix: ".sp", Magic: "RUSP0002", MaxRecord: maxRecordBytes + spoolSeqBytes}

// spoolRec is one spooled, not-yet-acked batch held in memory for sending.
type spoolRec struct {
	seq     uint64
	payload []byte // self-contained record encoding (no frame header)
	sent    bool   // sent at least once on some connection
}

type spoolSeg struct {
	idx    uint64
	maxSeq uint64
	bytes  int64
}

type spool struct {
	log *seglog.Log

	dir      string
	segs     []spoolSeg // ascending; last is the open segment
	bytes    int64      // sum of segs[].bytes
	nextSeq  uint64     // next sequence number to assign
	acked    uint64     // in-memory ack watermark
	persIdx  uint64     // acked value last written to ACKED
	tornTail uint64     // torn/corrupt tails tolerated during open
}

// openSpool loads dir, returning the spool armed on a fresh segment plus
// every record not yet covered by the persisted ack watermark, in sequence
// order.
func openSpool(dir string, maxSeg int64) (*spool, []spoolRec, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &spool{dir: dir, nextSeq: 1}
	if b, err := os.ReadFile(filepath.Join(dir, ackedName)); err == nil {
		if n, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); err == nil {
			s.acked, s.persIdx, s.nextSeq = n, n, n+1
		}
	}

	idxs, err := spoolFormat.Segments(dir)
	if err != nil {
		return nil, nil, err
	}
	var pending []spoolRec
	for _, idx := range idxs {
		seg := spoolSeg{idx: idx, bytes: seglog.MagicBytes}
		_, stop, err := spoolFormat.Scan(spoolFormat.SegmentPath(dir, idx), func(p []byte) error {
			seg.bytes += seglog.FrameBytes + int64(len(p))
			if len(p) < spoolSeqBytes {
				return nil // a tear acknowledgement: nothing of ours
			}
			seq := binary.LittleEndian.Uint64(p)
			seg.maxSeq = max(seg.maxSeq, seq)
			s.nextSeq = max(s.nextSeq, seq+1)
			if seq > s.acked {
				pending = append(pending, spoolRec{seq: seq, payload: append([]byte(nil), p[spoolSeqBytes:]...)})
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if stop != seglog.StopEOF {
			s.tornTail++
		}
		s.segs = append(s.segs, seg)
		s.bytes += seg.bytes
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })

	// Arm a fresh segment after everything on disk: a possibly-torn old
	// tail is never appended to.
	first := uint64(1)
	if len(idxs) > 0 {
		first = idxs[len(idxs)-1] + 1
	}
	s.log, err = seglog.Open(dir, spoolFormat, first, seglog.Options{
		MaxSegmentBytes: maxSeg,
		Sync:            seglog.SyncOff,
		OnSegment: func(idx uint64) {
			s.segs = append(s.segs, spoolSeg{idx: idx, bytes: seglog.MagicBytes})
			s.bytes += seglog.MagicBytes
		},
	})
	if err != nil {
		return nil, nil, err
	}
	s.prune()
	return s, pending, nil
}

// append logs one record under its sequence number. The byte ledger counts
// what the spool appended, not the log's 9-byte tear acknowledgements.
func (s *spool) append(seq uint64, record []byte) error {
	err := s.log.Append(func(buf []byte) []byte {
		buf = binary.LittleEndian.AppendUint64(buf, seq)
		return append(buf, record...)
	})
	if err != nil {
		return err
	}
	c := &s.segs[len(s.segs)-1]
	need := int64(seglog.FrameBytes + spoolSeqBytes + len(record))
	c.bytes += need
	s.bytes += need
	c.maxSeq = max(c.maxSeq, seq)
	s.nextSeq = max(s.nextSeq, seq+1)
	return nil
}

// ack advances the watermark, deletes fully-acked closed segments and
// persists ACKED (throttled).
func (s *spool) ack(seq uint64) {
	if seq <= s.acked {
		return
	}
	s.acked = seq
	if s.prune() || s.acked-s.persIdx >= ackPersistEvery {
		s.persistAcked()
	}
}

// prune deletes the segments at the head of the spool that hold nothing
// above the watermark (fully acked, or nothing of ours at all) — never the
// open one. A file that will not go is rescanned at the next open.
func (s *spool) prune() bool {
	n := 0
	for n < len(s.segs)-1 && s.segs[n].maxSeq <= s.acked {
		s.bytes -= s.segs[n].bytes
		n++
	}
	s.segs = s.segs[n:]
	if n > 0 {
		_, _ = spoolFormat.RemoveBelow(s.dir, s.segs[0].idx)
	}
	return n > 0
}

// persistAcked writes the watermark atomically. Failure is tolerated
// (stale ACKED only causes redundant, deduplicated resends).
func (s *spool) persistAcked() {
	tmp := filepath.Join(s.dir, ackedName+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(s.acked, 10)+"\n"), 0o644); err != nil {
		return
	}
	if os.Rename(tmp, filepath.Join(s.dir, ackedName)) == nil {
		s.persIdx = s.acked
	}
}

func (s *spool) close() error {
	s.persistAcked()
	return s.log.Close()
}
