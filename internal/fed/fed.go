// Package fed is the multi-probe federation layer: many Ruru probes, each
// tapping its own link, stream their enriched measurements to one central
// aggregator whose TSDB (rollups, WAL durability, query planner) serves the
// whole fleet. This is the probe→collector split large passive-measurement
// deployments use, grown out of the paper's single-tap design.
//
//	probe A ─┐ acked, batched, CRC-framed records
//	probe B ─┼────────────────────────────────────► aggregator
//	probe C ─┘  (mq frames over TCP, both ways)        │
//	                                                   ▼
//	                              WriteBatch → rollups → WAL → /api/query
//	                              every series tagged probe=<id>
//
// Wire protocol. Both directions speak internal/mq frames (uvarint-length
// topic + payload) over one TCP connection:
//
//	probe → aggregator   "fed.hello"  [1B version][uvarint len][probe id]
//	probe → aggregator   "fed.b"      [8B seq][4B CRC-32C][record]
//	aggregator → probe   "fed.ack"    [8B seq]   (cumulative, and the
//	                                  reply to hello: highest applied seq)
//
// The record bytes are the tsdb WAL's dictionary+delta point encoding in
// its self-contained form (tsdb.RecordEncoder): each batch decodes without
// stream context, so a spooled batch can be resent verbatim over any later
// connection.
//
// Delivery contract. Batches carry per-probe sequence numbers assigned
// once, at spool time. The aggregator acks a batch only after
// DB.WriteBatch returns, and applies a batch only if its seq exceeds the
// probe's highest applied seq — so a batch is applied EXACTLY ONCE per
// aggregator lifetime no matter how often the probe resends it, and an
// acked batch is already applied (durably so per the aggregator's fsync
// policy). The probe keeps every unacked batch in a small on-disk spool
// and resends from it after reconnects and crashes; the hello ack tells a
// restarted probe what the aggregator already has, healing a stale spool
// watermark. If probe AND aggregator state are lost in the same instant
// (aggregator restart while acks were in flight), the window between apply
// and ack degrades to at-least-once — the standard two-generals residue.
//
// Backpressure. The probe bounds in-flight state by maxUnacked batches and
// maxSpoolBytes on disk; past either bound the collector stops draining
// its bus subscription, measurements shed at the subscription HWM, and the
// loss is visible in ProbeStats (Dropped) and ruru.Stats — never silent.
package fed

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Frame topics of the probe↔aggregator protocol.
const (
	topicHello = "fed.hello"
	topicBatch = "fed.b"
	topicAck   = "fed.ack"
)

const protoVersion = 1

// maxRecordBytes bounds one batch record on the wire; the mq frame layer
// enforces its own 16MiB cap underneath.
const maxRecordBytes = 8 << 20

// maxProbeIDBytes bounds a probe identity: it becomes a tag value on
// every series and a registry key, so an unauthenticated peer must not be
// able to make it arbitrarily large.
const maxProbeIDBytes = 256

// Errors returned by the protocol layer.
var (
	ErrBadFrame = errors.New("fed: malformed frame")
	ErrBadCRC   = errors.New("fed: record CRC mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendHello encodes the probe's introduction.
func appendHello(buf []byte, id string) []byte {
	buf = append(buf, protoVersion)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	return append(buf, id...)
}

// parseHello decodes a hello payload.
func parseHello(p []byte) (id string, err error) {
	if len(p) < 2 || p[0] != protoVersion {
		return "", ErrBadFrame
	}
	n, w := binary.Uvarint(p[1:])
	if w <= 0 || uint64(len(p)-1-w) != n || n == 0 || n > maxProbeIDBytes {
		return "", ErrBadFrame
	}
	return string(p[1+w:]), nil
}

// appendSeq encodes an ack payload (also the hello reply).
func appendSeq(buf []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// parseSeq decodes an ack payload.
func parseSeq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(p), nil
}

// appendBatch frames one spooled record for the wire: sequence number,
// record CRC, record bytes.
func appendBatch(buf []byte, seq uint64, record []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(record, crcTable))
	return append(buf, record...)
}

// parseBatch decodes and CRC-checks one batch payload. The returned record
// aliases p.
func parseBatch(p []byte) (seq uint64, record []byte, err error) {
	if len(p) < 12 || len(p)-12 > maxRecordBytes {
		return 0, nil, ErrBadFrame
	}
	seq = binary.LittleEndian.Uint64(p)
	want := binary.LittleEndian.Uint32(p[8:])
	record = p[12:]
	if crc32.Checksum(record, crcTable) != want {
		return 0, nil, ErrBadCRC
	}
	return seq, record, nil
}
