package rss_test

import (
	"testing"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/rss"
)

// replayMatchRate replays a seeded trace through per-queue handshake tables
// with queueH choosing each packet's queue and tblH indexing its table, and
// returns the fraction of completing flows measured and the SYN-ACKs that
// found no SYN on their queue.
func replayMatchRate(t *testing.T, queues int, queueH, tblH *rss.Hasher) (float64, uint64) {
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
		Queues: queues, Hasher: queueH, TableHasher: tblH,
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
// configure symmetric Receiver Side Scaling (RSS)". An asymmetric key
// breaks the pipeline in two separate ways:
//
//  1. Table indexing: Ruru reuses the NIC's RSS hash as the flow-table
//     index. With an asymmetric key the SYN-ACK's reverse-tuple hash
//     differs from the SYN's, so the lookup itself fails and handshake
//     matching collapses even on one queue (hash-reuse).
//  2. Queue co-location: even when software recomputes a symmetric hash
//     for the table (sw-rehash, extra per-packet work), the two directions
//     still land on different queues about (Q-1)/Q of the time, and
//     per-queue tables cannot see each other's state.
//
// Only the symmetric key gives both for free.
func TestSymmetricRSSIsTheDesignRequirement(t *testing.T) {
	sym, ms := rss.NewSymmetric(), rss.New(rss.MicrosoftKey)
	for _, q := range []int{1, 4} {
		if rate, _ := replayMatchRate(t, q, sym, sym); rate < 0.999 {
			t.Errorf("symmetric key at %d queues: match rate %.3f", q, rate)
		}
		rate, orphans := replayMatchRate(t, q, ms, ms)
		if rate > 0.05 {
			t.Errorf("hash-reuse at %d queues: match rate %.3f, expected near-total collapse", q, rate)
		}
		if orphans == 0 {
			t.Errorf("hash-reuse at %d queues produced no orphan SYN-ACKs", q)
		}
	}
	// Software rehash fixes the table, so one queue is perfect...
	if rate, _ := replayMatchRate(t, 1, ms, sym); rate < 0.999 {
		t.Errorf("sw-rehash at 1 queue: match rate %.3f", rate)
	}
	// ...but co-location still fails about 3/4 of the time at four queues.
	rate, orphans := replayMatchRate(t, 4, ms, sym)
	if rate > 0.6 || rate < 0.1 {
		t.Errorf("sw-rehash at 4 queues: match rate %.3f, want ~0.25", rate)
	}
	if orphans == 0 {
		t.Error("sw-rehash at 4 queues produced no orphan SYN-ACKs")
	}
}
