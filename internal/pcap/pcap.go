// Package pcap reads and writes classic libpcap capture files (the pcap(4)
// format, not pcapng). Ruru's pipeline can tap a live source or replay a
// trace; traces are how experiments are made reproducible, and how the
// generator's output can be inspected with standard tools.
//
// Both microsecond (magic 0xa1b2c3d4) and nanosecond (magic 0xa1b23c4d)
// timestamp precision are supported, in either byte order. The writer emits
// nanosecond little-endian files, preserving the sub-microsecond resolution
// the measurement engine records.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// File-format constants.
const (
	MagicMicros   = 0xa1b2c3d4
	MagicNanos    = 0xa1b23c4d
	VersionMajor  = 2
	VersionMinor  = 4
	LinkTypeEther = 1

	globalHeaderLen = 24
	recordHeaderLen = 16
)

// Errors returned by the package.
var (
	ErrBadMagic     = errors.New("pcap: bad magic number")
	ErrBadLinkType  = errors.New("pcap: unsupported link type")
	ErrTruncated    = errors.New("pcap: truncated file")
	ErrSnaplen      = errors.New("pcap: packet exceeds snap length")
	ErrBadRecordLen = errors.New("pcap: record length exceeds snaplen")
)

// Packet is one captured record.
type Packet struct {
	// Timestamp in nanoseconds since the Unix epoch (or the capture's
	// arbitrary epoch — Ruru treats it as an opaque monotonic clock).
	Timestamp int64
	// Data is the captured bytes. For the Reader, Data references an
	// internal buffer that is reused by the next ReadPacket; copy it to
	// retain. OrigLen may exceed len(Data) if the capture truncated.
	Data    []byte
	OrigLen int
}

// Writer writes a pcap file.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	hdr     [recordHeaderLen]byte
	wrote   bool
}

// NewWriter creates a Writer emitting a nanosecond-precision Ethernet pcap
// with the given snap length (0 means 65535).
func NewWriter(w io.Writer, snaplen uint32) (*Writer, error) {
	if snaplen == 0 {
		snaplen = 65535
	}
	pw := &Writer{w: bufio.NewWriterSize(w, 1<<16), snaplen: snaplen}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], MagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:], VersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], VersionMinor)
	// thiszone and sigfigs are zero.
	binary.LittleEndian.PutUint32(hdr[16:], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEther)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return pw, nil
}

// WritePacket appends one record with the given timestamp (ns) and frame.
func (w *Writer) WritePacket(ts int64, frame []byte) error {
	if uint32(len(frame)) > w.snaplen {
		return ErrSnaplen
	}
	sec := ts / 1e9
	nsec := ts % 1e9
	if nsec < 0 { // normalize negative timestamps
		sec--
		nsec += 1e9
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], uint32(sec))
	binary.LittleEndian.PutUint32(w.hdr[4:], uint32(nsec))
	binary.LittleEndian.PutUint32(w.hdr[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(w.hdr[12:], uint32(len(frame)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(frame)
	w.wrote = true
	return err
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads a pcap file.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	snaplen  uint32
	linkType uint32
	buf      []byte
	hdr      [recordHeaderLen]byte
}

// NewReader parses the global header and prepares to read records.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicros:
		pr.order, pr.nanos = binary.LittleEndian, false
	case magicLE == MagicNanos:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicros:
		pr.order, pr.nanos = binary.BigEndian, false
	case magicBE == MagicNanos:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	pr.snaplen = pr.order.Uint32(hdr[16:20])
	pr.linkType = pr.order.Uint32(hdr[20:24])
	if pr.linkType != LinkTypeEther {
		return nil, fmt.Errorf("%w: %d", ErrBadLinkType, pr.linkType)
	}
	if pr.snaplen == 0 || pr.snaplen > 1<<20 {
		pr.snaplen = 1 << 20
	}
	pr.buf = make([]byte, 0, 2048)
	return pr, nil
}

// ReadPacket reads the next record into p. It returns io.EOF cleanly at end
// of file. p.Data references an internal buffer reused on the next call.
func (r *Reader) ReadPacket(p *Packet) error {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrTruncated
		}
		return err
	}
	sec := int64(r.order.Uint32(r.hdr[0:4]))
	sub := int64(r.order.Uint32(r.hdr[4:8]))
	inclLen := r.order.Uint32(r.hdr[8:12])
	origLen := r.order.Uint32(r.hdr[12:16])
	if inclLen > r.snaplen {
		return ErrBadRecordLen
	}
	if cap(r.buf) < int(inclLen) {
		r.buf = make([]byte, inclLen)
	}
	r.buf = r.buf[:inclLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return ErrTruncated
	}
	if r.nanos {
		p.Timestamp = sec*1e9 + sub
	} else {
		p.Timestamp = sec*1e9 + sub*1e3
	}
	p.Data = r.buf
	p.OrigLen = int(origLen)
	return nil
}
