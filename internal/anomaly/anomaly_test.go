package anomaly

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestSpikeDetectorCatchesFirewallGlitch(t *testing.T) {
	// Baseline ~150ms with jitter; one 4150ms sample must fire.
	d := NewSpikeDetector(SpikeConfig{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ts := int64(i) * 1e9
		lat := int64(150e6 + rng.NormFloat64()*10e6)
		if ev := d.Offer(ts, lat); ev != nil {
			t.Fatalf("false positive at %d: %+v", i, ev)
		}
	}
	ev := d.Offer(501e9, 4150e6)
	if ev == nil {
		t.Fatal("4000ms glitch not detected")
	}
	if ev.Kind != "latency_spike" || ev.Value != 4150e6 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Baseline > 200e6 {
		t.Fatalf("baseline contaminated: %v", ev.Baseline)
	}
}

func TestSpikeDetectorBaselineNotPoisoned(t *testing.T) {
	// A run of anomalous samples must all fire (they are excluded from
	// the baseline).
	d := NewSpikeDetector(SpikeConfig{})
	for i := 0; i < 200; i++ {
		// ~150ms with ±4ms deterministic jitter so MAD is realistic.
		d.Offer(int64(i)*1e9, 150e6+int64(i%5)*2e6)
	}
	fired := 0
	for i := 0; i < 50; i++ {
		if ev := d.Offer(int64(200+i)*1e9, 4000e6); ev != nil {
			fired++
		}
	}
	if fired != 50 {
		t.Fatalf("only %d/50 anomalous samples fired", fired)
	}
	// And the baseline must still be normal afterwards.
	if ev := d.Offer(300e9, 156e6); ev != nil {
		t.Fatalf("normal sample fired after anomaly run: %+v", ev)
	}
}

func TestSpikeDetectorWarmup(t *testing.T) {
	d := NewSpikeDetector(SpikeConfig{MinSamples: 64})
	// Early outliers must not fire during warmup.
	if ev := d.Offer(1, 4000e6); ev != nil {
		t.Fatal("fired during warmup")
	}
}

func TestSpikeDetectorAdaptsToShift(t *testing.T) {
	// A permanent latency shift (e.g. a path change) should stop firing
	// once the window has absorbed it... but because anomalous samples
	// are excluded, a large step stays anomalous by design. A moderate
	// step (below K·MAD) must be absorbed.
	d := NewSpikeDetector(SpikeConfig{K: 8, Window: 64})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		d.Offer(int64(i)*1e9, int64(150e6+rng.NormFloat64()*15e6))
	}
	// Step +60ms: within 8·MAD of ~10ms-ish MAD... borderline; verify no
	// sustained alarm after the window refills.
	fired := 0
	for i := 0; i < 200; i++ {
		if ev := d.Offer(int64(300+i)*1e9, int64(210e6+rng.NormFloat64()*15e6)); ev != nil {
			fired++
		}
	}
	if fired > 100 {
		t.Fatalf("moderate shift never absorbed: %d alarms", fired)
	}
}

func TestSpikeBankShardsByKey(t *testing.T) {
	b := NewSpikeBank(SpikeConfig{MinSamples: 64}, 10)
	// Auckland→LA is fast; Auckland→Tokyo is slow. Each key learns its
	// own baseline, so Tokyo's 300ms must not alarm.
	for i := 0; i < 200; i++ {
		ts := int64(i) * 1e9
		if ev := b.Offer("AKL→LAX", ts, 130e6); ev != nil {
			t.Fatalf("LAX false positive: %+v", ev)
		}
		if ev := b.Offer("AKL→TYO", ts, 300e6); ev != nil {
			t.Fatalf("TYO false positive: %+v", ev)
		}
	}
	if ev := b.Offer("AKL→LAX", 999e9, 320e6); ev == nil {
		t.Fatal("LAX at Tokyo-latency must alarm on the LAX baseline")
	}
	if b.Keys() != 2 {
		t.Fatalf("keys = %d", b.Keys())
	}
}

func TestSpikeBankKeyLimit(t *testing.T) {
	b := NewSpikeBank(SpikeConfig{}, 2)
	b.Offer("a", 1, 1)
	b.Offer("b", 1, 1)
	b.Offer("c", 1, 1) // over limit: ignored
	if b.Keys() != 2 {
		t.Fatalf("keys = %d", b.Keys())
	}
}

func TestFloodDetector(t *testing.T) {
	d := NewFloodDetector(FloodConfig{BucketNs: 1e9, MinCount: 50, Ratio: 8})
	// 20 normal buckets: ~5 unanswered/s (random scanning noise).
	ts := int64(0)
	for b := 0; b < 20; b++ {
		for i := 0; i < 5; i++ {
			d.ObserveUnanswered(ts + int64(i)*100e6)
		}
		ts += 1e9
	}
	if len(d.Events()) != 0 {
		t.Fatalf("false positives: %+v", d.Events())
	}
	// Flood: 2000 unanswered SYNs in one second.
	for i := 0; i < 2000; i++ {
		d.ObserveUnanswered(ts + int64(i)*400e3)
	}
	ts += 1e9
	d.ObserveUnanswered(ts) // roll the bucket
	d.Flush()
	evs := d.Events()
	if len(evs) == 0 {
		t.Fatal("flood not detected")
	}
	if evs[0].Kind != "syn_flood" || evs[0].Value < 1500 {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestFloodDetectorAlarmOncePerEpisode(t *testing.T) {
	d := NewFloodDetector(FloodConfig{BucketNs: 1e9, MinCount: 50, Ratio: 4, WarmupBuckets: 3})
	ts := int64(0)
	for b := 0; b < 10; b++ {
		d.ObserveUnanswered(ts)
		ts += 1e9
	}
	// A 5-bucket flood episode must raise ONE event.
	for b := 0; b < 5; b++ {
		for i := 0; i < 500; i++ {
			d.ObserveUnanswered(ts + int64(i)*1e6)
		}
		ts += 1e9
	}
	// Back to normal, then a second episode → a second event.
	for b := 0; b < 10; b++ {
		d.ObserveUnanswered(ts)
		ts += 1e9
	}
	for i := 0; i < 500; i++ {
		d.ObserveUnanswered(ts + int64(i)*1e6)
	}
	ts += 1e9
	d.ObserveUnanswered(ts)
	d.Flush()
	if got := len(d.Events()); got != 2 {
		t.Fatalf("%d events, want 2 (one per episode): %+v", got, d.Events())
	}
}

func TestFloodWarmupSuppressesEarlyAlarms(t *testing.T) {
	d := NewFloodDetector(FloodConfig{BucketNs: 1e9, WarmupBuckets: 5, MinCount: 10, Ratio: 2})
	// Immediate flood in bucket 0 — within warmup, no alarm.
	for i := 0; i < 1000; i++ {
		d.ObserveUnanswered(int64(i) * 1e6)
	}
	d.ObserveUnanswered(2e9)
	if len(d.Events()) != 0 {
		t.Fatalf("alarmed during warmup: %+v", d.Events())
	}
}

func TestSurgeDetector(t *testing.T) {
	d := NewSurgeDetector(SurgeConfig{BucketNs: 1e9, MinCount: 50, Ratio: 6})
	ts := int64(0)
	// Normal: ~10 conns/s AKL→LAX, ~3 conns/s AKL→TYO.
	for b := 0; b < 20; b++ {
		for i := 0; i < 10; i++ {
			d.Observe("AKL→LAX", ts+int64(i)*1e6)
		}
		for i := 0; i < 3; i++ {
			d.Observe("AKL→TYO", ts+int64(i)*1e6)
		}
		ts += 1e9
	}
	if len(d.Events()) != 0 {
		t.Fatalf("false positives: %+v", d.Events())
	}
	// Surge on one pair only.
	for i := 0; i < 500; i++ {
		d.Observe("AKL→TYO", ts+int64(i)*1e6)
	}
	ts += 1e9
	d.Observe("AKL→TYO", ts)
	d.Flush()
	evs := d.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events: %+v", len(evs), evs)
	}
	if evs[0].Kind != "conn_surge" || evs[0].Value < 400 {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestSNMPPollerMissesShortGlitch(t *testing.T) {
	// TestFirewallAnecdote's premise in miniature: 300s of ~150ms traffic
	// at 100 flows/s with a 0.5s window of 4000ms flows. The 5-minute
	// average moves by less than 15ms — far below any plausible alert
	// threshold — while a spike detector fires on every affected flow. The
	// detector sees the 10s before the window and the window itself: a
	// full baseline (Window 512), without paying its per-sample sort on
	// the rest of the interval.
	snmp := NewSNMPPoller(300e9)
	spike := NewSpikeDetector(SpikeConfig{})
	rng := rand.New(rand.NewSource(3))
	affected := 0
	spikes := 0
	for i := 0; i < 30000; i++ { // 100 flows/s for 300s
		ts := int64(i) * 10e6
		lat := int64(150e6 + rng.NormFloat64()*10e6)
		// glitch window: [100s, 100.5s)
		if ts >= 100e9 && ts < 100.5e9 {
			lat += 4000e6
			affected++
		}
		snmp.Offer(ts, lat)
		if ts < 90e9 || ts >= 100.5e9 {
			continue
		}
		if ev := spike.Offer(ts, lat); ev != nil {
			spikes++
		}
	}
	snmp.Flush()
	samples := snmp.Samples()
	if len(samples) != 1 {
		t.Fatalf("%d SNMP samples", len(samples))
	}
	if samples[0].MeanNs > 165e6 {
		t.Fatalf("SNMP mean %.1fms — glitch leaked into the average more than expected", samples[0].MeanNs/1e6)
	}
	if affected == 0 {
		t.Fatal("no affected flows generated")
	}
	if spikes < affected*9/10 {
		t.Fatalf("spike detector caught %d/%d affected flows", spikes, affected)
	}
}

func TestSNMPPollerBucketsCorrectly(t *testing.T) {
	p := NewSNMPPoller(10e9)
	for i := 0; i < 30; i++ {
		p.Offer(int64(i)*1e9, int64(i)*1e6)
	}
	p.Flush()
	s := p.Samples()
	if len(s) != 3 {
		t.Fatalf("%d samples", len(s))
	}
	if s[0].Count != 10 || s[1].Count != 10 || s[2].Count != 10 {
		t.Fatalf("counts: %+v", s)
	}
	if s[0].MeanNs != 4.5e6 || s[1].MeanNs != 14.5e6 {
		t.Fatalf("means: %v %v", s[0].MeanNs, s[1].MeanNs)
	}
}

func BenchmarkSpikeOffer(b *testing.B) {
	d := NewSpikeDetector(SpikeConfig{Window: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Offer(int64(i), int64(150e6+i%1000))
	}
}

func BenchmarkSpikeBankOffer(b *testing.B) {
	bank := NewSpikeBank(SpikeConfig{Window: 256}, 1024)
	keys := []string{"a", "b", "c", "d"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bank.Offer(keys[i%4], int64(i), int64(150e6+i%1000))
	}
}

func TestConcurrentOfferContract(t *testing.T) {
	// The contract the sharded sink relies on (run under -race in CI):
	// SpikeBank.Offer and SurgeDetector.Observe from several goroutines —
	// each goroutine owning its keys, as worker affinity guarantees —
	// while Keys/Events readers run concurrently. A FloodDetector behind
	// an external mutex (the pipeline's arrangement) joins in.
	const workers, perWorker = 4, 5000
	bank := NewSpikeBank(SpikeConfig{MinSamples: 64}, 0)
	surge := NewSurgeDetector(SurgeConfig{BucketNs: 1e9, MinCount: 10, WarmupBuckets: 1})
	flood := NewFloodDetector(FloodConfig{BucketNs: 1e9, MinCount: 10, WarmupBuckets: 1})
	var floodMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			key := fmt.Sprintf("City%d→City%d", w, w+1)
			for i := 0; i < perWorker; i++ {
				// 100 conns/s baseline for 40s, then the final 1000
				// offers crammed into a tenth of a second: a real surge
				// every key's detector must flag.
				ts := int64(i) * 1e7
				if i >= 4000 {
					ts = 40e9 + int64(i-4000)*1e5
				}
				bank.Offer(key, ts, int64(150e6+rng.NormFloat64()*10e6))
				surge.Observe(key, ts)
				floodMu.Lock()
				flood.ObserveUnanswered(ts)
				floodMu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				bank.Keys()
				surge.Events()
				floodMu.Lock()
				flood.Events()
				floodMu.Unlock()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if bank.Keys() != workers {
		t.Fatalf("keys = %d, want %d", bank.Keys(), workers)
	}
	surge.Flush()
	// Every key ramped from 100/bucket to 1000/bucket, so every key's
	// detector must have fired exactly one surge episode.
	keysFired := map[string]bool{}
	for _, ev := range surge.Events() {
		keysFired[ev.Detail] = true
	}
	if len(keysFired) != workers {
		t.Fatalf("surge events for %d/%d keys: %+v", len(keysFired), workers, surge.Events())
	}
}
