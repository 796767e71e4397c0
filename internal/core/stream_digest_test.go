package core_test

// The parent-pinned stream digest: one seeded internal/gen trace — TCP
// timestamps on, with data retransmissions and RSTs spliced in — driven
// through a HandshakeTable, a TSTracker and two SeqTrackers (two-direction
// and one-direction) at small capacity and short timeouts behind one shared
// admitter, so TableFull, admission refusal, idle eviction and backward-
// shift deletion all fire thousands of times. Every emitted record and the
// final Stats() of each tracker are hashed per stream. The trace is run
// once indexed by the symmetric Toeplitz hash, as the code that wrote the
// digest indexed it, and once per seed indexed by FlowHash, as the engine
// indexes it now: the tables are exact, so no index may change an emitted
// record, and the idle sweep visiting slots in index order must not make
// expiry visible.
//
// testdata/parent_stream_digest.txt was written by the code from BEFORE the
// three trackers moved onto the one flowTable (RURU_UPDATE_PARENT_DIGEST=1
// on a checkout of that commit — see docs/TESTING.md). It is the oracle
// that the shared table changed no emitted record and no counter; do not
// regenerate it with the code under test.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

// digestAdmitter answers by call count alone (never by the charge, whose
// value is a struct size and may differ between commits): every 7th
// admission is refused, every 5th admitted through the promoted path.
type digestAdmitter struct {
	calls, admitted, refused, released, promotedReleased int
}

func (a *digestAdmitter) Observe(*pkt.Summary) uint64 { return 0 }

func (a *digestAdmitter) Admit(int64) (ok, promoted bool) {
	a.calls++
	if a.calls%7 == 3 {
		a.refused++
		return false, false
	}
	a.admitted++
	return true, a.calls%5 == 0
}

func (a *digestAdmitter) Release(_ int64, promoted bool) {
	a.released++
	if promoted {
		a.promotedReleased++
	}
}

func (a *digestAdmitter) Publish(bool) {}

func (a *digestAdmitter) Stats() core.SketchStats { return core.SketchStats{} }

// digestPacket is one parsed packet of the spliced trace. The Summary's
// slices view frame, which the packet owns.
type digestPacket struct {
	ts   int64
	sum  pkt.Summary
	hash uint32
}

// digestTrace generates the trace: a gen stream with timestamps, SYN and
// SYN-ACK loss and midstream flows, plus — drawn from a second seeded
// source — a retransmitted copy of ~4% of the data segments (30ms later: a
// fast retransmit; 400ms later: past the RTO threshold) and an RST|ACK
// right behind ~1% of all packets (handshake packets included), after which
// the flow's remaining packets meet a freed slot.
func digestTrace(t *testing.T) []digestPacket {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 16, World: w, FlowRate: 1500, Duration: 3e9,
		DataSegments: 5, DataSpacing: 20e6, MidstreamRate: 100, UDPRate: 50,
		IPv6Fraction: 0.2, SYNLoss: 0.05, SYNACKLoss: 0.05, RTO: 300e6,
		EmitTCPTimestamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		parser pkt.Parser
		hasher = rss.NewSymmetric()
		rng    = rand.New(rand.NewSource(16))
		trace  []digestPacket
		p      gen.Packet
	)
	for g.Next(&p) {
		d := digestPacket{ts: p.TS}
		frame := append([]byte(nil), p.Frame...)
		if err := parser.Parse(frame, &d.sum); err != nil || !d.sum.IsTCP() {
			continue
		}
		d.hash = hasher.HashTuple(d.sum.Src(), d.sum.Dst(), d.sum.TCP.SrcPort, d.sum.TCP.DstPort)
		trace = append(trace, d)
		if len(d.sum.Payload) > 0 && rng.Intn(100) < 4 {
			re := d
			re.ts += 30e6
			if rng.Intn(2) == 0 {
				re.ts += 370e6
			}
			trace = append(trace, re)
		}
		if rng.Intn(100) < 1 {
			rst := d
			rst.ts++
			rst.sum.TCP.Flags = pkt.TCPRst | pkt.TCPAck
			rst.sum.Payload = nil
			trace = append(trace, rst)
		}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].ts < trace[j].ts })
	return trace
}

// streamDigests runs the trace with each packet's tables indexed by
// hashOf and returns one "name sha256 records" line per output stream, in
// a fixed order.
func streamDigests(t *testing.T, trace []digestPacket, hashOf func(*digestPacket) uint32) []string {
	t.Helper()
	adm := &digestAdmitter{}
	var expired, expiredAwait int
	hs := core.NewHandshakeTable(core.TableConfig{
		Capacity: 256, Timeout: 150e6, Queue: 1, Admit: adm,
		OnExpire: func(_ int64, awaiting bool) {
			expired++
			if awaiting {
				expiredAwait++
			}
		},
	})
	tst := core.NewTSTracker(core.TSConfig{Capacity: 128, Timeout: 120e6, Queue: 2, Admit: adm})
	seq := core.NewSeqTracker(core.SeqConfig{Capacity: 128, Timeout: 120e6, Queue: 3, Admit: adm})
	one := core.NewSeqTracker(core.SeqConfig{Capacity: 64, Timeout: 80e6, Queue: 4, OneDirection: true, Admit: adm})

	names := []string{"handshake", "tsrtt", "seqrtt", "loss", "onedir", "onedir_loss", "final"}
	sums := make(map[string]hash.Hash, len(names))
	counts := make(map[string]int, len(names))
	for _, n := range names {
		sums[n] = sha256.New()
	}
	rec := func(name string, v any) {
		counts[name]++
		fmt.Fprintf(sums[name], "%+v\n", v)
	}

	var (
		m   core.Measurement
		ts  core.TSSample
		ss  core.SeqSample
		lev core.LossEvent
		now int64
	)
	for i := range trace {
		d := &trace[i]
		now = d.ts
		h := hashOf(d)
		if hs.Process(&d.sum, d.ts, h, &m) {
			rec("handshake", m)
		}
		if tst.Process(&d.sum, d.ts, h, &ts) {
			rec("tsrtt", ts)
		}
		if s, l := seq.Process(&d.sum, d.ts, h, &ss, &lev); s || l {
			if s {
				rec("seqrtt", ss)
			}
			if l {
				rec("loss", lev)
			}
		}
		if s, l := one.Process(&d.sum, d.ts, h, &ss, &lev); s || l {
			if s {
				rec("onedir", ss)
			}
			if l {
				rec("onedir_loss", lev)
			}
		}
	}
	// Half the trackers are swept at end of trace and half left as the
	// incremental sweep found them, so SweepAll and Len are both pinned.
	hs.SweepAll(now + 1e9)
	seq.SweepAll(now + 1e9)
	rec("final", hs.Stats())
	rec("final", tst.Stats())
	rec("final", seq.Stats())
	rec("final", one.Stats())
	rec("final", []int{hs.Len(), tst.Len(), seq.Len(), one.Len(), expired, expiredAwait})
	rec("final", *adm)
	t.Logf("handshake %+v\ntsrtt %+v\nseqrtt %+v\nonedir %+v\nadmitter %+v",
		hs.Stats(), tst.Stats(), seq.Stats(), one.Stats(), *adm)

	// The digest only pins what it exercises: every table mechanism must
	// have fired, on every tracker.
	hst, tss, sqs, ods := hs.Stats(), tst.Stats(), seq.Stats(), one.Stats()
	for name, n := range map[string]uint64{
		"handshake TableFull": hst.TableFull, "handshake Expired": hst.Expired,
		"handshake Aborted": hst.Aborted, "handshake Completed": hst.Completed,
		"tsrtt TableFull": tss.TableFull, "tsrtt Expired": tss.Expired, "tsrtt Samples": tss.Samples,
		"seqrtt TableFull": sqs.TableFull, "seqrtt Expired": sqs.Expired, "seqrtt Samples": sqs.Samples,
		"seqrtt Retrans": sqs.Retrans, "seqrtt RTO": sqs.RTO,
		"onedir TableFull": ods.TableFull, "onedir Expired": ods.Expired, "onedir Samples": ods.OneDirSamples,
		"admitter refusals": uint64(adm.refused), "promoted releases": uint64(adm.promotedReleased),
	} {
		if n == 0 {
			t.Errorf("trace never exercised %s", name)
		}
	}
	if live := hs.Len() + tst.Len() + seq.Len() + one.Len(); adm.admitted-adm.released != live {
		t.Errorf("admitted %d - released %d != %d live entries", adm.admitted, adm.released, live)
	}

	lines := make([]string, 0, len(names))
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%s %x %d", n, sums[n].Sum(nil), counts[n]))
	}
	return lines
}

func parentDigestPath() string { return filepath.Join("testdata", "parent_stream_digest.txt") }

func TestStreamDigestMatchesParent(t *testing.T) {
	trace := digestTrace(t)
	got := strings.Join(streamDigests(t, trace, func(d *digestPacket) uint32 { return d.hash }), "\n") + "\n"
	if os.Getenv("RURU_UPDATE_PARENT_DIGEST") != "" {
		if err := os.WriteFile(parentDigestPath(), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s:\n%s", parentDigestPath(), got)
		return
	}
	want, err := os.ReadFile(parentDigestPath())
	if err != nil {
		t.Fatalf("parent digest missing (written on the parent commit with RURU_UPDATE_PARENT_DIGEST=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("emitted streams differ from the parent commit's (name sha256 records):\n got:\n%s want:\n%s", got, want)
	}
	for range 3 {
		seed := randv2.Uint64()
		got := strings.Join(streamDigests(t, trace, func(d *digestPacket) uint32 {
			return uint32(core.FlowHash(seed, &d.sum))
		}), "\n") + "\n"
		if got != string(want) {
			t.Errorf("indexed by FlowHash with seed %#x, emitted streams differ from the parent commit's:\n got:\n%s want:\n%s", seed, got, want)
		}
	}
}
