package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		{0x01, 0x02, 0x03},
		bytes.Repeat([]byte{0xaa}, 1514),
		{},
	}
	stamps := []int64{0, 1_700_000_000_123_456_789, 42}
	for i, f := range frames {
		if err := w.WritePacket(stamps[i], f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for i := range frames {
		if err := r.ReadPacket(&p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p.Timestamp != stamps[i] {
			t.Fatalf("packet %d: ts = %d, want %d", i, p.Timestamp, stamps[i])
		}
		if !bytes.Equal(p.Data, frames[i]) {
			t.Fatalf("packet %d: data mismatch", i)
		}
		if p.OrigLen != len(frames[i]) {
			t.Fatalf("packet %d: origlen = %d", i, p.OrigLen)
		}
	}
	if err := r.ReadPacket(&p); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderMicrosecondBigEndian(t *testing.T) {
	// Hand-build a big-endian microsecond file: one 4-byte packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], MagicMicros)
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65535)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeEther)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], 100)  // sec
	binary.BigEndian.PutUint32(rec[4:], 2500) // usec
	binary.BigEndian.PutUint32(rec[8:], 4)
	binary.BigEndian.PutUint32(rec[12:], 4)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := r.ReadPacket(&p); err != nil {
		t.Fatal(err)
	}
	want := int64(100)*1e9 + 2500*1e3
	if p.Timestamp != want {
		t.Fatalf("ts = %d, want %d", p.Timestamp, want)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 10))); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderBadLinkType(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], MagicNanos)
	binary.LittleEndian.PutUint32(hdr[20:], 101) // raw IP
	_, err := NewReader(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("accepted non-Ethernet link type")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.WritePacket(1, []byte{1, 2, 3, 4, 5})
	w.Flush()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := r.ReadPacket(&p); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

func TestWriterSnaplenEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 100)
	if err := w.WritePacket(1, make([]byte, 101)); err != ErrSnaplen {
		t.Fatalf("err = %v", err)
	}
}

func TestRecordLenExceedsSnaplen(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], MagicNanos)
	binary.LittleEndian.PutUint32(hdr[16:], 64) // snaplen 64
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEther)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:], 100) // incl_len 100 > snaplen
	binary.LittleEndian.PutUint32(rec[12:], 100)
	buf.Write(rec)
	buf.Write(make([]byte, 100))
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := r.ReadPacket(&p); err != ErrBadRecordLen {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeTimestampNormalized(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	// A slightly negative timestamp (before epoch) still round-trips in
	// the nsec field; sec wraps but sub-second part must stay in range.
	if err := w.WritePacket(-1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(&buf)
	var p Packet
	if err := r.ReadPacket(&p); err != nil {
		t.Fatal(err)
	}
	// sec = -1 stored as uint32 wraps; we only assert the reader does not
	// reject the record and the sub-second part is < 1e9.
	if p.Timestamp%1e9 >= 1e9 {
		t.Fatal("nsec out of range")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(stamps []int64, payload []byte) bool {
		if len(stamps) > 50 {
			stamps = stamps[:50]
		}
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		// The classic pcap format stores 32-bit seconds; constrain
		// timestamps to the representable range.
		const maxTS = int64(1<<32-1) * 1e9
		norm := func(ts int64) int64 {
			if ts < 0 {
				ts = -ts
			}
			if ts < 0 { // MinInt64
				ts = 0
			}
			return ts % maxTS
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 0)
		if err != nil {
			return false
		}
		for _, ts := range stamps {
			if err := w.WritePacket(norm(ts), payload); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var p Packet
		for _, raw := range stamps {
			ts := norm(raw)
			if err := r.ReadPacket(&p); err != nil {
				return false
			}
			if p.Timestamp != ts || !bytes.Equal(p.Data, payload) {
				return false
			}
		}
		return r.ReadPacket(&p) == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard, 0)
	frame := make([]byte, 128)
	b.SetBytes(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.WritePacket(int64(i), frame)
	}
	w.Flush()
}
