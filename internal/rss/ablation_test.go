package rss_test

import (
	"testing"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/rss"
)

// replayMatchRate replays a seeded trace through per-queue handshake tables
// with queueH choosing each packet's queue (the tables are indexed by the
// queue's seeded flow hash, as in the engine), and returns the fraction of
// completing flows measured and the SYN-ACKs that found no SYN on their
// queue.
func replayMatchRate(t *testing.T, queues int, queueH *rss.Hasher) (float64, uint64) {
	t.Helper()
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(gen.Config{Seed: 1, World: world, FlowRate: 2000, Duration: 2.5e9})
	if err != nil {
		t.Fatal(err)
	}
	rep := gen.Replay{
		Queues: queues, Hasher: queueH,
		Table: core.TableConfig{Capacity: 1 << 17, Timeout: 60e9},
	}
	st := rep.Run(g)
	flows := 0
	for _, tr := range g.Truths() {
		if tr.Completes {
			flows++
		}
	}
	if flows < 1000 {
		t.Fatalf("only %d completing flows", flows)
	}
	return float64(st.Tables.Completed) / float64(flows), st.Tables.OrphanSYNACKs
}

// TestSymmetricRSSIsTheDesignRequirement is the ablation behind §2's "we
// configure symmetric Receiver Side Scaling (RSS)". The flow tables are
// indexed by a seeded flow hash that is symmetric by construction, so the
// RSS key no longer decides whether a lookup finds its flow: an asymmetric
// key on one queue matches as well as the symmetric one. What the key
// still decides is queue co-location: with an asymmetric key the two
// directions land on different queues about (Q-1)/Q of the time, and
// per-queue tables cannot see each other's state.
func TestSymmetricRSSIsTheDesignRequirement(t *testing.T) {
	sym, ms := rss.NewSymmetric(), rss.New(rss.MicrosoftKey)
	for _, q := range []int{1, 4} {
		if rate, _ := replayMatchRate(t, q, sym); rate < 0.999 {
			t.Errorf("symmetric key at %d queues: match rate %.3f", q, rate)
		}
	}
	// One queue has nothing to co-locate: the asymmetric key matches too...
	if rate, _ := replayMatchRate(t, 1, ms); rate < 0.999 {
		t.Errorf("asymmetric key at 1 queue: match rate %.3f", rate)
	}
	// ...but co-location fails about 3/4 of the time at four queues.
	rate, orphans := replayMatchRate(t, 4, ms)
	if rate > 0.6 || rate < 0.1 {
		t.Errorf("asymmetric key at 4 queues: match rate %.3f, want ~0.25", rate)
	}
	if orphans == 0 {
		t.Error("asymmetric key at 4 queues produced no orphan SYN-ACKs")
	}
}
