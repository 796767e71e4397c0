package core

// Native fuzz target for the SeqTracker — the stateful per-flow machinery
// behind sequence-matched RTT and loss classification. The tracker's
// contract under arbitrary segment/ACK interleavings (reordering, overlap,
// wraparound sequence numbers, truncated payload descriptions) is: never
// panic, never emit a sample with RTT ≤ 0 under monotone tap timestamps,
// keep live-slot occupancy bounded, and keep every stats counter monotone
// with the emitted sample/loss streams summing exactly into the counters.
// Seeds cover the scripted exchanges the unit tests pin; the checked-in
// corpus under testdata/fuzz/FuzzSeqTracker is regenerated with
// RURU_UPDATE=1 (see docs/TESTING.md). CI runs a short -fuzz smoke on top.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ruru/internal/pkt"
)

// fuzzOpLen is the encoded size of one tracker operation; a trailing
// partial op is ignored (truncated-input robustness is part of the seeds).
const fuzzOpLen = 12

// seqFuzzOp decodes one operation from the fuzz input:
//
//	b[0] bits 0..1  flow selector (4 fixed canonical flows)
//	b[0] bit  2     direction (A→B / B→A)
//	b[0] bits 3..5  flag variant (ACK / plain / FIN / RST / SYN / SYN|ACK)
//	b[0] bit  6     carry a TCP timestamp option
//	b[1]            payload length (0..255) and timestamp advance
//	b[2:6], b[6:10] seq, ack (big endian — wraparound comes for free)
//	b[10], b[11]    tsval, tsecr bytes when the option is carried
func seqFuzzOp(tb testing.TB, b []byte) (*pkt.Summary, uint32) {
	tb.Helper()
	flows := [4][2]string{
		{"10.0.0.1", "192.0.2.1"},
		{"10.0.0.2", "192.0.2.1"},
		{"2001:db8::1", "2001:db8::9"},
		{"10.0.0.1", "10.0.0.1"}, // same addr, ports disambiguate
	}
	fl := flows[b[0]&3]
	src, dst := fl[0], fl[1]
	sp, dp := uint16(5000), uint16(443)
	if b[0]&4 != 0 {
		src, dst = dst, src
		sp, dp = dp, sp
	}
	var flags uint8
	switch (b[0] >> 3) & 7 {
	case 0, 1, 2:
		flags = pkt.TCPAck
	case 3:
		flags = 0
	case 4:
		flags = pkt.TCPFin | pkt.TCPAck
	case 5:
		flags = pkt.TCPRst
	case 6:
		flags = pkt.TCPSyn
	case 7:
		flags = pkt.TCPSyn | pkt.TCPAck
	}
	seq := binary.BigEndian.Uint32(b[2:6])
	ack := binary.BigEndian.Uint32(b[6:10])
	s, h := mkDataSummary(src, dst, sp, dp, flags, seq, ack, int(b[1]))
	if b[0]&0x40 != 0 {
		var opt [pkt.TimestampOptionLen]byte
		s.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], uint32(b[10]), uint32(b[11]))...)
	}
	return s, h
}

// seqFuzzSeeds scripts the exchanges the unit tests pin, as encoded op
// streams: a clean data→ACK pair, a fast retransmit, duplicate ACKs, a
// wraparound edge, a SYN|RST probe, a truncated tail and a RST closing a
// tracked flow.
func seqFuzzSeeds() [][]byte {
	op := func(ctl, pay byte, seq, ack uint32, tsv, tse byte) []byte {
		b := make([]byte, fuzzOpLen)
		b[0], b[1] = ctl, pay
		binary.BigEndian.PutUint32(b[2:6], seq)
		binary.BigEndian.PutUint32(b[6:10], ack)
		b[10], b[11] = tsv, tse
		return b
	}
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	return [][]byte{
		// data A→B then covering ACK B→A.
		cat(op(0, 100, 1000, 1, 0, 0), op(4, 0, 1, 1100, 0, 0)),
		// fast retransmit: same range twice, then the ACK (Karn: no sample).
		cat(op(0, 100, 1000, 1, 0, 0), op(0, 100, 1000, 1, 0, 0), op(4, 0, 1, 1100, 0, 0)),
		// duplicate ACKs.
		cat(op(0, 100, 1000, 1, 0, 0), op(4, 0, 1, 1050, 0, 0), op(4, 0, 1, 1050, 0, 0), op(4, 0, 1, 1050, 0, 0)),
		// wraparound edge [0xFFFFFF00, 0x64).
		cat(op(1, 100, 0xFFFFFF00, 1, 0, 0), op(5, 0, 1, 0x64-0x100+0x100, 0, 0)),
		// SYN|RST probe and a lone SYN (must never enter the table).
		cat(op(6<<3, 0, 7, 7, 0, 0), op(5<<3, 0, 7, 7, 0, 0)),
		// timestamp-bearing exchange (DeferTS config path).
		cat(op(0x40, 100, 1000, 1, 10, 20), op(0x44, 0, 1, 1100, 30, 10)),
		// truncated tail: one full op plus half an op.
		cat(op(2, 50, 500, 1, 0, 0), op(2, 0, 1, 550, 0, 0)[:5]),
		// data A→B, then B→A resets the flow the data opened.
		cat(op(0, 100, 1000, 1, 0, 0), op(4|5<<3, 0, 1, 1100, 0, 0)),
	}
}

func FuzzSeqTracker(f *testing.F) {
	for _, s := range seqFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		configs := []SeqConfig{
			{Capacity: 16, Timeout: 64},
			{Capacity: 16, Timeout: 64, OneDirection: true},
			{Capacity: 16, Timeout: 1 << 40, DeferTS: true, RTOThreshold: 8},
		}
		for ci, cfg := range configs {
			tr := NewSeqTracker(cfg)
			var sample SeqSample
			var loss LossEvent
			var prev SeqStats
			var samples, oneDir, retrans, rto, dup uint64
			ts := int64(0)
			for off := 0; off+fuzzOpLen <= len(data); off += fuzzOpLen {
				s, h := seqFuzzOp(t, data[off:off+fuzzOpLen])
				ts += int64(data[off+1]) + 1 // strictly monotone tap clock
				gotS, gotL := tr.Process(s, ts, h, &sample, &loss)
				if gotS {
					samples++
					if sample.RTT <= 0 {
						t.Fatalf("cfg %d: sample with RTT %d at op %d", ci, sample.RTT, off/fuzzOpLen)
					}
					if sample.OneDir {
						oneDir++
					}
					if sample.OneDir != cfg.OneDirection {
						t.Fatalf("cfg %d: OneDir=%v under OneDirection=%v", ci, sample.OneDir, cfg.OneDirection)
					}
				}
				if gotL {
					switch loss.Kind {
					case LossRetrans:
						retrans++
					case LossRTO:
						rto++
					case LossDupACK:
						dup++
					}
				}
				// Occupancy stays under the 85% load-factor ceiling.
				if tr.Len() > tr.maxLive {
					t.Fatalf("cfg %d: occupancy %d exceeds maxLive %d", ci, tr.Len(), tr.maxLive)
				}
				// Counters are monotone and sum with the emitted streams.
				st := tr.Stats()
				if st.Packets < prev.Packets || st.Inserted < prev.Inserted ||
					st.Samples < prev.Samples || st.OneDirSamples < prev.OneDirSamples ||
					st.Unmatched < prev.Unmatched || st.Retrans < prev.Retrans ||
					st.RTO < prev.RTO || st.DupACK < prev.DupACK ||
					st.Expired < prev.Expired || st.TableFull < prev.TableFull {
					t.Fatalf("cfg %d: counter went backwards: %+v -> %+v", ci, prev, st)
				}
				prev = st
			}
			st := tr.Stats()
			if st.Samples != samples || st.OneDirSamples != oneDir {
				t.Fatalf("cfg %d: emitted %d/%d samples, counted %d/%d", ci, samples, oneDir, st.Samples, st.OneDirSamples)
			}
			if st.Retrans != retrans || st.RTO != rto || st.DupACK != dup {
				t.Fatalf("cfg %d: emitted losses %d/%d/%d, counted %d/%d/%d",
					ci, retrans, rto, dup, st.Retrans, st.RTO, st.DupACK)
			}
			// Eviction drains everything; Len/Occupancy agree throughout.
			tr.SweepAll(ts + int64(1)<<62)
			if tr.Len() != 0 {
				t.Fatalf("cfg %d: %d entries survived a full sweep", ci, tr.Len())
			}
			checkFlowIdentity(t, "cfg "+strconv.Itoa(ci), &tr.flowTable)
		}
	})
}

// TestWriteSeqFuzzCorpus regenerates the checked-in seed corpus
// (testdata/fuzz/FuzzSeqTracker) from the scripted seeds plus mutated
// variants. Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteSeqFuzzCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	var all [][]byte
	for _, s := range seqFuzzSeeds() {
		all = append(all, s)
		if len(s) > fuzzOpLen {
			all = append(all, s[:len(s)-fuzzOpLen/2]) // truncation
			flip := append([]byte(nil), s...)
			flip[len(flip)/2] ^= 0xff // corrupt a field mid-stream
			all = append(all, flip)
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSeqTracker")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range all {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		path := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus files to %s", len(all), dir)
}
