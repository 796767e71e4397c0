package anomaly

// The paper's §3 detection claims on generated traffic: the packet stream
// runs through per-queue handshake tables (gen.Replay), and each detector
// is judged against the generator's ground truth rather than a clock.

import (
	"testing"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
)

// cityPair keys a measurement by its src→dst city pair, as the pipeline's
// sink does.
func cityPair(w *geo.World, m *core.Measurement) string {
	if cs, ok := w.CityOf(m.Flow.Client); ok {
		if cd, ok := w.CityOf(m.Flow.Server); ok {
			return cs.Name + "→" + cd.Name
		}
	}
	return "?"
}

// TestFirewallAnecdote is §3's headline: a periodic firewall update adds
// 4000 ms to every connection started in a 500 ms window, and "this 4000 ms
// increase had not been noticed by conventional measurement tools (e.g.,
// SNMP polls), however, it was clearly shown in our Grafana UI". The spike
// detector must flag the affected flows, and the worst 5-minute SNMP
// interval must stay within 40 % of the mean latency of the flows the
// glitch did not touch.
//
// With seed 1 the worst interval sits 7.2 % above that mean. A 5 s window
// puts it at +69.8 % and fails here: the bound separates a glitch SNMP
// misses from one it would show.
func TestFirewallAnecdote(t *testing.T) {
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 1, World: world,
		FlowRate: 100, Duration: 540e9,
		// The deployment scenario: NZ clients, US servers.
		ClientCities: []int{0, 2, 3}, ServerCities: []int{1, 7, 8, 9},
		FirewallWindows: []gen.Window{{
			Every: 120e9, Offset: 60e9, Length: 500e6, Extra: 4000e6,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	spikes := NewSpikeBank(SpikeConfig{}, 0)
	snmp := NewSNMPPoller(300e9)
	type outcome struct {
		flow  core.FlowKey
		total int64
		fired bool
	}
	var outcomes []outcome
	rep := gen.Replay{
		Queues: 4,
		Table:  core.TableConfig{Capacity: 1 << 17, Timeout: 60e9},
		OnMeasure: func(m *core.Measurement) {
			snmp.Offer(m.ACKTime, m.Total)
			ev := spikes.Offer(cityPair(world, m), m.ACKTime, m.Total)
			outcomes = append(outcomes, outcome{flow: m.Flow, total: m.Total, fired: ev != nil})
		},
	}
	rep.Run(g)
	snmp.Flush()

	anomalous := map[core.FlowKey]bool{}
	for _, tr := range g.Truths() {
		anomalous[tr.Key] = tr.Anomalous
	}
	var affected, firings, truePos, unaffected int
	var unaffectedSum float64
	for _, o := range outcomes {
		a, ok := anomalous[o.flow]
		if !ok {
			continue
		}
		if o.fired {
			firings++
		}
		if !a {
			unaffected++
			unaffectedSum += float64(o.total)
			continue
		}
		affected++
		if o.fired {
			truePos++
		}
	}
	if affected == 0 || unaffected == 0 {
		t.Fatalf("%d affected, %d unaffected flows measured", affected, unaffected)
	}
	recall := float64(truePos) / float64(affected)
	if recall < 0.9 {
		t.Fatalf("recall %.2f too low (affected %d, TP %d)", recall, affected, truePos)
	}
	precision := float64(truePos) / float64(firings)
	if precision < 0.8 {
		t.Fatalf("precision %.2f too low (%d firings)", precision, firings)
	}

	worst := 0.0
	for _, s := range snmp.Samples() {
		worst = max(worst, s.MeanNs)
	}
	baseline := unaffectedSum / float64(unaffected)
	deviation := 100 * (worst - baseline) / baseline
	t.Logf("%d/%d flows affected, spike recall %.3f precision %.3f; worst SNMP interval %.1f ms vs %.1f ms unaffected mean (%+.1f%%)",
		affected, affected+unaffected, recall, precision, worst/1e6, baseline/1e6, deviation)
	if deviation > 40 {
		t.Fatalf("worst SNMP interval %.1f%% above the unaffected mean: the glitch should be invisible to 5-min averages",
			deviation)
	}
}

// TestFloodAndSurge covers §3's other real-time detections: a 5000 SYN/s
// flood (unanswered SYNs surface as handshake-table expiries) and a burst
// of connections between one city pair, each on two minutes of background
// traffic with ambient scanning noise. Both must be detected in their
// window with no alarm outside it, the flood within 15 s of onset.
func TestFloodAndSurge(t *testing.T) {
	const (
		duration           = 120e9
		floodAt, floodLen  = 60e9, 10e9
		surgeAt, surgeLen  = 70e9, 10e9
		handshakeTimeout   = 3e9
		maxFloodDetectionS = 15
	)
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 1, World: world,
		FlowRate: 100, Duration: duration,
		Floods: []gen.FloodSpec{
			// Ambient scanning noise throughout: the baseline.
			{Start: 0, Duration: duration, Rate: 5, SrcCity: 12, DstCity: 3},
			// The attack.
			{Start: floodAt, Duration: floodLen, Rate: 5000, SrcCity: 4, DstCity: 1},
		},
		Surges: []gen.SurgeSpec{
			{Start: surgeAt, Duration: surgeLen, Rate: 800, SrcCity: 12, DstCity: 14},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	flood := NewFloodDetector(FloodConfig{BucketNs: 1e9, MinCount: 100, Ratio: 8, WarmupBuckets: 5})
	surge := NewSurgeDetector(SurgeConfig{BucketNs: 1e9, MinCount: 50, Ratio: 6, WarmupBuckets: 5})
	rep := gen.Replay{
		Queues: 4,
		// A short handshake timeout turns unanswered SYNs into flood
		// signal quickly: the operational knob for detection latency.
		Table: core.TableConfig{
			Capacity: 1 << 17, Timeout: handshakeTimeout,
			OnExpire: func(lastTS int64, awaiting bool) {
				if awaiting {
					flood.ObserveUnanswered(lastTS)
				}
			},
		},
		OnMeasure: func(m *core.Measurement) { surge.Observe(cityPair(world, m), m.ACKTime) },
	}
	rep.Run(g)
	flood.Flush()
	surge.Flush()

	// Flood events are stamped in expiry-timestamp space, the flood SYN's
	// last activity, so they are compared against the flood window itself.
	floodDetected := false
	for _, ev := range flood.Events() {
		if ev.Time < floodAt-2e9 || ev.Time > floodAt+floodLen+2*handshakeTimeout {
			t.Errorf("flood false alarm at t=%.1fs: %s", float64(ev.Time)/1e9, ev.Detail)
			continue
		}
		if !floodDetected {
			floodDetected = true
			// The delay includes the handshake timeout: SYNs must expire
			// before they count as unanswered.
			delay := float64(ev.Time-floodAt+handshakeTimeout) / 1e9
			t.Logf("flood detected %.1fs after onset", delay)
			if delay > maxFloodDetectionS {
				t.Errorf("flood detection took %.1fs", delay)
			}
		}
	}
	if !floodDetected {
		t.Error("flood not detected")
	}
	surgeDetected := false
	for _, ev := range surge.Events() {
		if ev.Time < surgeAt-2e9 || ev.Time > surgeAt+surgeLen+5e9 {
			t.Errorf("surge false alarm at t=%.1fs: %s", float64(ev.Time)/1e9, ev.Detail)
			continue
		}
		surgeDetected = true
	}
	if !surgeDetected {
		t.Error("surge not detected")
	}
}
