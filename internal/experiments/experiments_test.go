package experiments

import (
	"io"
	"strings"
	"testing"
)

// The experiment suite is exercised at reduced scale so `go test` stays
// fast; cmd/ruru-bench runs the full-size versions.

func TestE1SmallScale(t *testing.T) {
	res, err := E1(E1Config{Seed: 1, Flows: 2000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured != res.Flows {
		t.Fatalf("measured %d/%d flows", res.Measured, res.Flows)
	}
	if res.ExactMatches != res.Measured {
		t.Fatalf("only %d/%d exact matches (max err %dns)", res.ExactMatches, res.Measured, res.MaxErrorNs)
	}
	if res.MaxErrorNs != 0 {
		t.Fatalf("max error %dns, want 0", res.MaxErrorNs)
	}
	if res.RetransFlows == 0 {
		t.Fatal("loss injection produced no retransmitting flows")
	}
	if res.MedianTotalMs <= 0 {
		t.Fatal("no latency distribution")
	}
}

func TestE4FirewallDetection(t *testing.T) {
	var sb strings.Builder
	res, err := E4(E4Config{Seed: 1, FlowRate: 100, Hours: 0.15, PeriodS: 120, WindowMs: 500, ExtraMs: 4000}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected == 0 {
		t.Fatal("no affected flows")
	}
	if res.Recall < 0.9 {
		t.Fatalf("recall %.2f too low (affected %d, TP %d)", res.Recall, res.Affected, res.TruePositives)
	}
	if res.Precision < 0.8 {
		t.Fatalf("precision %.2f too low (%d firings)", res.Precision, res.SpikeFirings)
	}
	// The paper's point: the SNMP average must NOT show the glitch
	// prominently. With 0.4% of flows affected by +4000ms on a ~200ms
	// baseline, the 5-min mean moves by ~10%, well under alerting
	// thresholds.
	if res.SNMPDeviationPct > 40 {
		t.Fatalf("SNMP deviation %.1f%% — glitch should be invisible to 5-min averages", res.SNMPDeviationPct)
	}
	if !strings.Contains(sb.String(), "Ruru spike detections") {
		t.Fatal("report not printed")
	}
}

func TestE5FloodAndSurge(t *testing.T) {
	res, err := E5(E5Config{Seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FloodDetected {
		t.Fatal("flood not detected")
	}
	if res.FloodDetectDelayS > 15 {
		t.Fatalf("flood detection took %.1fs", res.FloodDetectDelayS)
	}
	if res.FloodFalseAlarms != 0 {
		t.Fatalf("%d flood false alarms", res.FloodFalseAlarms)
	}
	if !res.SurgeDetected {
		t.Fatal("surge not detected")
	}
	if res.SurgeFalseAlarms != 0 {
		t.Fatalf("%d surge false alarms", res.SurgeFalseAlarms)
	}
}

func TestE6AccuracyTracksMislabelFraction(t *testing.T) {
	rows, err := E6(E6Config{Seed: 1, Fractions: []float64{0, 0.1}, Lookups: 20000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].CityAccuracy != 1.0 {
		t.Fatalf("clean DB city accuracy %.3f", rows[0].CityAccuracy)
	}
	// 10% of ranges mislabeled → city accuracy near 90%.
	if rows[1].CityAccuracy > 0.97 || rows[1].CityAccuracy < 0.8 {
		t.Fatalf("10%% mislabels → city accuracy %.3f, want ~0.9", rows[1].CityAccuracy)
	}
	// Country accuracy must be >= city accuracy (mislabels within the
	// same country still count for country).
	if rows[1].CountryAccuracy < rows[1].CityAccuracy {
		t.Fatalf("country %.3f < city %.3f", rows[1].CountryAccuracy, rows[1].CityAccuracy)
	}
	if rows[0].NsPerLookup <= 0 || rows[0].NsPerLookup > 100000 {
		t.Fatalf("lookup cost %v ns implausible", rows[0].NsPerLookup)
	}
}

func TestE7SymmetricRSSIsTheDesignRequirement(t *testing.T) {
	rows, err := E7(E7Config{Seed: 1, QueueList: []int{1, 4}, Flows: 3000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byCfg := map[string]map[int]E7Row{}
	for _, r := range rows {
		if byCfg[r.Config] == nil {
			byCfg[r.Config] = map[int]E7Row{}
		}
		byCfg[r.Config][r.Queues] = r
	}
	// Symmetric: 100% at any queue count.
	for q, r := range byCfg["symmetric"] {
		if r.MatchRate < 0.999 {
			t.Fatalf("symmetric key at %d queues: match rate %.3f", q, r.MatchRate)
		}
	}
	// Hash-reuse with the asymmetric key: table lookups themselves break,
	// so matching collapses even on one queue.
	for q, r := range byCfg["microsoft/hash-reuse"] {
		if r.MatchRate > 0.05 {
			t.Fatalf("hash-reuse at %d queues: match rate %.3f, expected near-total collapse", q, r.MatchRate)
		}
		if r.OrphanedSA == 0 {
			t.Fatalf("hash-reuse at %d queues produced no orphan SYN-ACKs", q)
		}
	}
	// Software rehash fixes the table, so 1 queue is perfect...
	if r := byCfg["microsoft/sw-rehash"][1]; r.MatchRate < 0.999 {
		t.Fatalf("sw-rehash at 1 queue: match rate %.3f", r.MatchRate)
	}
	// ...but queue co-location still fails ~3/4 of the time at 4 queues.
	r4 := byCfg["microsoft/sw-rehash"][4]
	if r4.MatchRate > 0.6 || r4.MatchRate < 0.1 {
		t.Fatalf("sw-rehash at 4 queues: match rate %.3f, want ~0.25", r4.MatchRate)
	}
	if r4.OrphanedSA == 0 {
		t.Fatal("sw-rehash at 4 queues produced no orphan SYN-ACKs")
	}
}

func TestE10ContinuousRTTMatchesOracle(t *testing.T) {
	res, err := E10(E10Config{Seed: 1, Flows: 3000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows < 1000 {
		t.Fatalf("only %d TS-clean flows", res.Flows)
	}
	if res.MatchedData != res.ExpectedData {
		t.Fatalf("matched %d/%d data echoes", res.MatchedData, res.ExpectedData)
	}
	if res.WrongData != 0 {
		t.Fatalf("%d off-oracle samples", res.WrongData)
	}
	// In-stream external excludes server think time; handshake includes
	// it — so in-stream must be strictly lower.
	if res.MedianExtMs >= res.HandshakeExtMs {
		t.Fatalf("in-stream median %.2f >= handshake median %.2f", res.MedianExtMs, res.HandshakeExtMs)
	}
	// Midstream flows are invisible to the handshake engine but must all
	// be measured by the tracker.
	if res.MidstreamFlows == 0 {
		t.Fatal("no midstream flows generated")
	}
	if res.MidstreamMeasured != res.MidstreamFlows {
		t.Fatalf("midstream: measured %d/%d flows", res.MidstreamMeasured, res.MidstreamFlows)
	}
	if res.MidstreamMatched != res.MidstreamExpected {
		t.Fatalf("midstream: %d/%d samples exact", res.MidstreamMatched, res.MidstreamExpected)
	}
}

func TestE13Durability(t *testing.T) {
	res, err := E13(E13Config{Seed: 1, Points: 30000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery must be lossless and duplicate-free (checkpoint + WAL tail
	// sum to exactly the written points), bit-equal on the exact
	// aggregates, and the rollup tiers must be rebuilt by replay.
	if !res.RecoverOK {
		t.Fatalf("recovered %d+%d of %d points", res.Restored, res.Replayed, res.Points)
	}
	if res.Restored == 0 || res.Replayed == 0 {
		t.Fatalf("recovery exercised only one path: %d restored, %d replayed", res.Restored, res.Replayed)
	}
	if !res.ExactAggs {
		t.Fatal("post-restart raw query diverged from pre-restart state")
	}
	if !res.TierRebuilt {
		t.Fatal("rollup tiers not rebuilt (or diverged) after restart")
	}
	if res.MemRate <= 0 || res.WALOffRate <= 0 || res.WALIntRate <= 0 {
		t.Fatalf("rates not measured: %+v", res)
	}
}

func TestE14Federation(t *testing.T) {
	res, err := E14(E14Config{Probes: 2, Points: 4000, Batch: 64}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactlyOnce {
		t.Fatalf("exactly-once violated: %+v", res)
	}
	if res.Applied != res.Sent || res.Sent != 8000 {
		t.Fatalf("sent %d applied %d", res.Sent, res.Applied)
	}
}

func TestE15SketchSoakSmall(t *testing.T) {
	res, err := E15(E15Config{Flows: 200_000, Queues: 4, BudgetBytes: 16 << 20, Elephants: 8}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CapHeld {
		t.Fatalf("byte cap exceeded: high-water %d > %d", res.MaxTierBytes, res.BudgetBytes)
	}
	if res.ElephantsRanked != res.Elephants {
		t.Fatalf("elephants ranked %d/%d", res.ElephantsRanked, res.Elephants)
	}
	// The cap must actually bind at this scale: most mice refused into
	// sketch-only state, yet some exact records (incl. every elephant) live.
	if res.SketchOnly == 0 {
		t.Fatal("cap never bound: zero sketch-only flows")
	}
	if res.ExactFlows == 0 || res.Promoted < uint64(res.Elephants) {
		t.Fatalf("exact tier empty or elephants not promoted: %+v", res)
	}
	if res.LiveBytes > res.BudgetBytes*int64(res.Queues) {
		t.Fatalf("live %d exceeds total cap", res.LiveBytes)
	}
}

// TestE15FullScaleSoak is the 10M-flow memory-cap soak from the issue:
// tier bytes stay under the 16MiB/queue cap for the whole run while the
// heavy-hitter view still surfaces every planted elephant.
func TestE15FullScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-flow soak skipped in -short")
	}
	res, err := E15(E15Config{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CapHeld || res.ElephantsRanked != res.Elephants || res.SketchOnly == 0 {
		t.Fatalf("soak invariants violated: %+v", res)
	}
}
