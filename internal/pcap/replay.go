package pcap

import "ruru/internal/nic"

// Source returns the capture as a nic.Drive source: each call fills in the
// next record's bytes and timestamp, rebased so that the first record is at
// 0 on the port's clock, and io.EOF follows the last record. A capture cut
// short mid-record ends with ErrTruncated, which Drive returns with the
// count of what it replayed. The bytes alias the reader's buffer; Drive
// copies them before the next call.
func (r *Reader) Source() func(*nic.Frame) error {
	var (
		p       Packet
		first   int64
		started bool
	)
	return func(f *nic.Frame) error {
		if err := r.ReadPacket(&p); err != nil {
			return err
		}
		if !started {
			first, started = p.Timestamp, true
		}
		f.Data, f.TS = p.Data, p.Timestamp-first
		return nil
	}
}
