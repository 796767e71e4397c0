package tsdb

// The exported face of the WAL entry codec (wal.go): self-contained,
// dictionary-compressed point records for transports that frame and
// checksum on their own — the federation remote-write stream reuses the
// exact on-disk record encoding as its wire format, so a probe's batch
// costs the same ~10–15 bytes per steady-state point as a WAL append.
//
// Unlike WAL segments, where the shape dictionary spans a whole segment,
// every record produced here is SELF-CONTAINED: the dictionary and all
// delta-coding state reset at each AppendRecord, so a record can be
// spooled, resent over a different connection, or decoded in isolation
// without any stream context. A batch of points from a handful of series
// still amortizes its define entries over the whole record.

// RecordEncoder encodes batches of points into self-contained records.
// The zero value is ready to use. Not safe for concurrent use; the
// internal dictionary is scratch state reused across calls.
type RecordEncoder struct {
	enc pointEncoder
}

// AppendRecord appends the encoding of pts to buf and returns the extended
// slice. Tags of each point are sorted in place (the canonical point form,
// as Write would). The record decodes stand-alone with DecodeRecord.
func (e *RecordEncoder) AppendRecord(buf []byte, pts []Point) []byte {
	e.enc.reset()
	for i := range pts {
		sortTags(pts[i].Tags)
		buf = e.enc.appendPoint(buf, &pts[i])
	}
	return buf
}

// DecodeRecord decodes one self-contained record, calling fn for every
// point. The *Point passed to fn is reused between calls — copy what you
// keep. Decoding stops at the first malformed entry with an error; points
// already handed to fn stand (the caller decides whether a partial record
// is usable — the federation aggregator does not, because the record CRC
// is checked before decode, making any failure here real corruption).
// Arbitrary input never panics and allocates at most in proportion to
// len(payload) — the fuzz targets pin both properties.
func DecodeRecord(payload []byte, fn func(*Point) error) error {
	var dec walDecoder
	return dec.decode(payload, fn)
}
