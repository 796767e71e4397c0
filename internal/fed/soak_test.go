package fed

// The federation ledger soak test: a randomized probe↔aggregator run with
// injected full-fleet disconnects, single-probe kill -9 and full-fleet
// kill -9 (goroutines reaped without Close, spools reopened cold, ACKED
// watermarks possibly stale), plus a fixed run whose one fault is the
// full-fleet kill -9. The pinned invariant is the delivery ledger:
//
//	Σ points flushed to the spool, across every probe incarnation
//	    == points the aggregator applied == points in the DB
//
// i.e. no spooled (a fortiori no acked) batch is ever lost and none
// applies twice. On loopback the schedule seldom forces a resend, and most
// runs end with dedup having absorbed nothing, so this test cannot be
// relied on to exercise the dedup path.
// TestDuplicateBatchDeduped pins it at the protocol level; driving it end
// to end needs a connection wrapper that loses acks on purpose.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// soakProbe is one probe incarnation plus its lifetime accounting.
type soakProbe struct {
	id      string
	dir     string
	bus     *mq.Bus
	pr      *Probe
	cancel  context.CancelFunc
	done    chan struct{}
	flushed uint64 // PointsOut of PRIOR incarnations
	pubBase uint64 // PointsOut of the live incarnation at chunk start
}

func (s *soakProbe) start(t *testing.T, addr string) {
	t.Helper()
	s.bus = mq.NewBus()
	pr, err := NewProbe(ProbeConfig{
		Addr: addr, ID: s.id, SpoolDir: s.dir,
	}, s.bus)
	if err != nil {
		t.Fatal(err)
	}
	s.pr = pr
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	go func() { pr.Run(ctx); close(s.done) }()
}

// crash reaps the incarnation without Close: the spool keeps whatever the
// "kill -9" left on disk, in-memory state is discarded.
func (s *soakProbe) crash(t *testing.T) {
	t.Helper()
	st := s.pr.Stats()
	if st.SpoolErrors != 0 {
		t.Fatalf("probe %s spool errors: %d", s.id, st.SpoolErrors)
	}
	s.flushed += st.PointsOut
	s.cancel()
	<-s.done
	s.bus.Close()
}

func TestSoakFederationLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	setForTest(t, &batchSize, 32)
	setForTest(t, &flushEvery, 2*time.Millisecond)
	setForTest(t, &spoolSegmentBytes, 64<<10)
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name   string
		rounds int
		chunk  func() int          // points each probe is fed per round
		arm    func(round int) int // the fault that ends the round
	}{
		{"random", 25, func() int { return 50 + rng.Intn(400) },
			func(int) int { return rng.Intn(4) }},
		// Every probe is killed at once with half its points spooled, then
		// restarted from its spool: 2 probes × 4000 points.
		{"fleet_crash", 2, func() int { return 2000 },
			func(round int) int { return 2 + round }},
	} {
		t.Run(c.name, func(t *testing.T) { soakLedger(t, rng, c.rounds, c.chunk, c.arm) })
	}
}

// soakLedger runs rounds of: feed every probe chunk() points, then inject
// fault arm(round); then it drains and checks the delivery ledger.
func soakLedger(t *testing.T, rng *rand.Rand, rounds int, chunk func() int, arm func(round int) int) {
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	probes := []*soakProbe{
		{id: "soak-0", dir: t.TempDir()},
		{id: "soak-1", dir: t.TempDir()},
	}
	for _, sp := range probes {
		sp.start(t, agg.Addr().String())
	}

	published := 0
	// publishChunk feeds n unique measurements to sp and waits until the
	// probe has flushed them all to the spool (so the crash/disconnect
	// ledger below is exact: nothing countable sits in the bus queue).
	publishChunk := func(sp *soakProbe, n int) {
		t.Helper()
		sp.pubBase = sp.pr.Stats().PointsOut
		for i := 0; i < n; i++ {
			published++
			e := analytics.Enriched{
				Time:    int64(published) * 1e6, // unique per point
				TotalNs: 30e6, InternalNs: 10e6, ExternalNs: 20e6,
				Src: analytics.Endpoint{City: fmt.Sprintf("City%d", published%5), CountryCode: "NZ"},
				Dst: analytics.Endpoint{City: "Los Angeles", CountryCode: "US"},
			}
			sp.bus.Publish(mq.Message{Topic: analytics.TopicEnriched,
				Payload: analytics.MarshalEnriched(nil, &e)})
		}
		deadline := time.Now().Add(10 * time.Second)
		for sp.pr.Stats().PointsOut-sp.pubBase != uint64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("probe %s flushed %d/%d", sp.id,
					sp.pr.Stats().PointsOut-sp.pubBase, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for round := 0; round < rounds; round++ {
		for _, sp := range probes {
			publishChunk(sp, chunk())
		}
		switch arm(round) {
		case 0:
			// Sever every connection while acks may still be in flight:
			// probes must reconnect and replay their unacked tail.
			agg.DropConnections()
		case 1:
			// kill -9 one probe and restart it cold from its spool.
			victim := probes[rng.Intn(len(probes))]
			victim.crash(t)
			victim.start(t, agg.Addr().String())
		case 2:
			// kill -9 the whole fleet at once, then restart every probe
			// from its own spool under the same identity.
			for _, sp := range probes {
				sp.crash(t)
			}
			for _, sp := range probes {
				sp.start(t, agg.Addr().String())
			}
		case 3:
			// Let it run.
		}
	}

	// Final drain: everything every incarnation ever spooled must be
	// applied exactly once.
	var totalFlushed uint64
	for _, sp := range probes {
		totalFlushed += sp.flushed + sp.pr.Stats().PointsOut
	}
	deadline := time.Now().Add(soakDrainTimeout())
	for {
		written, _ := db.WriteStats()
		if written == totalFlushed {
			break
		}
		if written > totalFlushed {
			t.Fatalf("duplicate apply: db %d > flushed %d", written, totalFlushed)
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost batches: db %d, flushed %d (agg stats %+v)",
				written, totalFlushed, agg.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Settle and re-check: a straggling resend must not double-apply.
	time.Sleep(100 * time.Millisecond)
	written, _ := db.WriteStats()
	if written != totalFlushed {
		t.Fatalf("post-settle duplicate apply: db %d != flushed %d", written, totalFlushed)
	}
	if totalFlushed != uint64(published) {
		t.Fatalf("flushed %d != published %d (feeder lost measurements)", totalFlushed, published)
	}

	st := agg.Stats()
	if st.Points != written {
		t.Fatalf("aggregator applied %d, db has %d", st.Points, written)
	}
	if st.BadFrames != 0 || st.DecodeErrors != 0 || st.WriteErrors != 0 {
		t.Fatalf("protocol errors during soak: %+v", st)
	}
	t.Logf("soak: %d points, %d rounds, dedup absorbed %d duplicate batches",
		published, rounds, st.DupBatches)

	for _, sp := range probes {
		sp.cancel()
		<-sp.done
		sp.pr.Close()
		sp.bus.Close()
	}
}

// soakDrainTimeout lets a hang investigation (SOAK_HANG=1) run into the
// go test -timeout goroutine dump instead of the test's own deadline.
func soakDrainTimeout() time.Duration {
	if os.Getenv("SOAK_HANG") != "" {
		return 10 * time.Minute
	}
	return 20 * time.Second
}
