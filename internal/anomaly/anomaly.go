// Package anomaly implements the operational use cases from the paper's §3:
// detection of fine-grained latency anomalies ("micro-glitches ... that no
// other monitoring system had previously identified", the nightly firewall
// update adding ~4000 ms), SYN floods, and unusual connection counts between
// locations — all in real time, on the enriched measurement stream.
//
// It also implements the strawman the paper compares against: an SNMP-style
// poller that only sees five-minute aggregates, which TestFirewallAnecdote
// uses to show why the firewall glitch was invisible to conventional
// monitoring.
//
// # Concurrency contract
//
// The pipeline's sharded sink offers measurements from several workers at
// once, so each type states its contract explicitly:
//
//   - SpikeBank.Offer and SurgeDetector.Observe/Events are safe for
//     concurrent use (internal locks). Detection state is per key, so
//     results are deterministic as long as each KEY's samples arrive in
//     order — which the sink guarantees by hashing every src→dst pair to a
//     single worker. Offers for different keys may interleave freely.
//   - SpikeDetector and FloodDetector are single-goroutine types: callers
//     serialize access (the pipeline guards its FloodDetector with a
//     mutex; SpikeDetector is always used through a SpikeBank).
//   - SNMPPoller is single-goroutine; the pipeline serializes Offer/Flush.
package anomaly

import (
	"fmt"
	"sync"

	"ruru/internal/stats"
)

// Event is one detected anomaly.
type Event struct {
	Time   int64  // detection timestamp (ns, measurement clock)
	Kind   string // "latency_spike", "syn_flood", "conn_surge"
	Detail string
	// Value is the observed metric, Baseline the expected level.
	Value, Baseline float64
}

// Settings no caller tunes.
const (
	// minMADNs floors the spike detector's MAD (1 ms) so ultra-stable
	// baselines don't turn noise into alarms.
	minMADNs = 1e6
	// baselineAlpha is the EWMA weight of the flood and surge baselines.
	baselineAlpha = 0.05
	// maxSurgeKeys bounds the surge detector's per-key state; keys beyond
	// it are not tracked.
	maxSurgeKeys = 4096
)

// SpikeConfig tunes the latency spike detector.
type SpikeConfig struct {
	// Window is the number of recent samples forming the baseline
	// (default 512).
	Window int
	// K is the robust z-score threshold: a sample is anomalous when
	// |x - median| > K · max(MAD, minMADNs) (default 8).
	K float64
	// MinSamples before any detection fires (default 64).
	MinSamples int
}

// SpikeDetector flags individual measurements far outside the recent
// latency distribution. It uses median/MAD, not mean/stddev: a 4000 ms
// outlier would inflate a standard deviation enough to hide its successors,
// but barely moves the median (see stats.RollingMedian).
//
// Not safe for concurrent use; shard per key (e.g. per city pair) with
// SpikeBank.
type SpikeDetector struct {
	cfg    SpikeConfig
	window *stats.RollingMedian
	seen   int
}

// NewSpikeDetector returns a detector with cfg defaults applied.
func NewSpikeDetector(cfg SpikeConfig) *SpikeDetector {
	if cfg.Window <= 0 {
		cfg.Window = 512
	}
	if cfg.K <= 0 {
		cfg.K = 8
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 64
	}
	return &SpikeDetector{cfg: cfg, window: stats.NewRollingMedian(cfg.Window)}
}

// Offer examines one latency sample (ns). It returns a non-nil Event when
// the sample is anomalous. Anomalous samples are NOT added to the baseline
// (self-poisoning protection), so after a lasting level shift every sample
// is an event; the detector keeps none of them — what to retain is the
// caller's choice.
func (d *SpikeDetector) Offer(ts int64, latencyNs int64) *Event {
	x := float64(latencyNs)
	if d.seen >= d.cfg.MinSamples {
		med := d.window.Median()
		mad := max(d.window.MAD(), minMADNs)
		if x-med > d.cfg.K*mad { // one-sided: slow is anomalous, fast is fine
			return &Event{
				Time: ts, Kind: "latency_spike",
				Detail:   fmt.Sprintf("latency %.1fms vs median %.1fms (MAD %.2fms)", x/1e6, med/1e6, mad/1e6),
				Value:    x,
				Baseline: med,
			}
		}
	}
	d.window.Add(x)
	d.seen++
	return nil
}

// SpikeBank shards SpikeDetectors by key (city pair, AS pair...), with a
// bound on the number of tracked keys.
type SpikeBank struct {
	mu      sync.Mutex
	cfg     SpikeConfig
	byKey   map[string]*SpikeDetector
	maxKeys int
}

// NewSpikeBank creates a bank with the given per-key config.
func NewSpikeBank(cfg SpikeConfig, maxKeys int) *SpikeBank {
	if maxKeys <= 0 {
		maxKeys = 4096
	}
	return &SpikeBank{cfg: cfg, byKey: make(map[string]*SpikeDetector), maxKeys: maxKeys}
}

// Offer routes the sample to its key's detector. Safe for concurrent use;
// per-key determinism requires each key's samples to arrive in order (one
// offering goroutine per key, as the sharded sink guarantees).
func (b *SpikeBank) Offer(key string, ts, latencyNs int64) *Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.byKey[key]
	if !ok {
		if len(b.byKey) >= b.maxKeys {
			return nil
		}
		d = NewSpikeDetector(b.cfg)
		b.byKey[key] = d
	}
	return d.Offer(ts, latencyNs)
}

// Keys returns the number of tracked keys.
func (b *SpikeBank) Keys() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byKey)
}

// FloodConfig tunes the SYN flood detector.
type FloodConfig struct {
	// BucketNs is the counting interval (default 1s).
	BucketNs int64
	// Ratio: alarm when unanswered-SYN count exceeds Ratio × baseline
	// (default 8) AND exceeds MinCount (default 100).
	Ratio    float64
	MinCount float64
	// WarmupBuckets before alarms can fire (default 5).
	WarmupBuckets int
}

// FloodDetector counts handshakes that expired unanswered, per time
// bucket. A surge in that count relative to its EWMA baseline raises an
// event — the paper's "SYN floods can also be identified in real-time".
//
// Not safe for concurrent use: callers serialize ObserveUnanswered/Flush/Events
// (the pipeline guards its instance with a mutex; expiries are rare
// relative to packets, so the lock is uncontended).
type FloodDetector struct {
	cfg FloodConfig

	started     bool
	bucketStart int64
	unanswered  float64
	baseline    stats.EWMA
	buckets     int
	events      []Event
	inAlarm     bool
}

// NewFloodDetector returns a detector with defaults applied.
func NewFloodDetector(cfg FloodConfig) *FloodDetector {
	if cfg.BucketNs <= 0 {
		cfg.BucketNs = 1e9
	}
	if cfg.Ratio <= 0 {
		cfg.Ratio = 8
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 100
	}
	if cfg.WarmupBuckets <= 0 {
		cfg.WarmupBuckets = 5
	}
	d := &FloodDetector{cfg: cfg}
	d.baseline.Alpha = baselineAlpha
	return d
}

// ObserveUnanswered records a handshake that expired without completing.
func (d *FloodDetector) ObserveUnanswered(ts int64) {
	d.roll(ts)
	d.unanswered++
}

// Flush closes the current bucket (call at end of stream).
func (d *FloodDetector) Flush() { d.closeBucket(d.bucketStart + d.cfg.BucketNs) }

func (d *FloodDetector) roll(ts int64) {
	if !d.started {
		d.started = true
		d.bucketStart = ts - ts%d.cfg.BucketNs
		return
	}
	for ts >= d.bucketStart+d.cfg.BucketNs {
		d.closeBucket(d.bucketStart + d.cfg.BucketNs)
	}
}

func (d *FloodDetector) closeBucket(next int64) {
	count := d.unanswered
	base := d.baseline.Value()
	if d.buckets >= d.cfg.WarmupBuckets &&
		count >= d.cfg.MinCount && count > d.cfg.Ratio*(base+1) {
		if !d.inAlarm {
			d.events = append(d.events, Event{
				Time: d.bucketStart, Kind: "syn_flood",
				Detail: fmt.Sprintf("%d unanswered SYNs in %.0fs bucket (baseline %.1f)",
					int(count), float64(d.cfg.BucketNs)/1e9, base),
				Value: count, Baseline: base,
			})
			d.inAlarm = true
		}
		// Do not feed attack buckets into the baseline.
	} else {
		d.baseline.Add(count)
		d.inAlarm = false
	}
	d.unanswered = 0
	d.buckets++
	d.bucketStart = next
}

// Events returns all detections so far.
func (d *FloodDetector) Events() []Event { return d.events }

// SurgeConfig tunes the connection-count detector (per location pair).
type SurgeConfig struct {
	BucketNs      int64   // default 1s
	Ratio         float64 // default 6
	MinCount      float64 // default 50
	WarmupBuckets int     // default 5
}

// SurgeDetector counts completed connections per key (e.g. "src→dst" city
// pair) per bucket and alarms on surges over the per-key EWMA baseline —
// "unusual number of TCP connections between two locations".
type SurgeDetector struct {
	cfg SurgeConfig

	mu     sync.Mutex
	perKey map[string]*surgeState
	events []Event
}

type surgeState struct {
	bucketStart int64
	count       float64
	baseline    stats.EWMA
	buckets     int
	inAlarm     bool
}

// NewSurgeDetector returns a detector with defaults applied.
func NewSurgeDetector(cfg SurgeConfig) *SurgeDetector {
	if cfg.BucketNs <= 0 {
		cfg.BucketNs = 1e9
	}
	if cfg.Ratio <= 0 {
		cfg.Ratio = 6
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 50
	}
	if cfg.WarmupBuckets <= 0 {
		cfg.WarmupBuckets = 5
	}
	return &SurgeDetector{cfg: cfg, perKey: make(map[string]*surgeState)}
}

// Observe records one completed connection for key at ts. Safe for
// concurrent use.
func (d *SurgeDetector) Observe(key string, ts int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.perKey[key]
	if !ok {
		if len(d.perKey) >= maxSurgeKeys {
			return
		}
		st = &surgeState{bucketStart: ts - ts%d.cfg.BucketNs}
		st.baseline.Alpha = baselineAlpha
		d.perKey[key] = st
	}
	for ts >= st.bucketStart+d.cfg.BucketNs {
		d.closeBucketLocked(key, st)
	}
	st.count++
}

// Flush closes all open buckets.
func (d *SurgeDetector) Flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, st := range d.perKey {
		d.closeBucketLocked(key, st)
	}
}

func (d *SurgeDetector) closeBucketLocked(key string, st *surgeState) {
	base := st.baseline.Value()
	if st.buckets >= d.cfg.WarmupBuckets &&
		st.count >= d.cfg.MinCount && st.count > d.cfg.Ratio*(base+1) {
		if !st.inAlarm {
			d.events = append(d.events, Event{
				Time: st.bucketStart, Kind: "conn_surge",
				Detail: fmt.Sprintf("%s: %d connections/bucket (baseline %.1f)",
					key, int(st.count), base),
				Value: st.count, Baseline: base,
			})
			st.inAlarm = true
		}
	} else {
		st.baseline.Add(st.count)
		st.inAlarm = false
	}
	st.count = 0
	st.buckets++
	st.bucketStart += d.cfg.BucketNs
}

// Events returns all detections so far.
func (d *SurgeDetector) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

// SNMPPoller is the conventional-monitoring strawman: it averages all
// latency samples over a long poll interval (five minutes for classic SNMP
// counters). TestFirewallAnecdote shows that the firewall anomaly — a
// 4000 ms increase confined to flows started in a sub-second window —
// vanishes into this average, while the SpikeDetector flags the affected
// flows.
type SNMPPoller struct {
	IntervalNs int64

	started     bool
	bucketStart int64
	sum         float64
	n           int
	samples     []SNMPSample
}

// SNMPSample is one poll result.
type SNMPSample struct {
	Time   int64   // poll bucket start
	MeanNs float64 // average latency over the interval
	Count  int
}

// NewSNMPPoller creates a poller with the given interval (default 5min).
func NewSNMPPoller(intervalNs int64) *SNMPPoller {
	if intervalNs <= 0 {
		intervalNs = 300e9
	}
	return &SNMPPoller{IntervalNs: intervalNs}
}

// Offer consumes one latency sample.
func (p *SNMPPoller) Offer(ts int64, latencyNs int64) {
	if !p.started {
		p.started = true
		p.bucketStart = ts - ts%p.IntervalNs
	}
	for ts >= p.bucketStart+p.IntervalNs {
		p.close()
	}
	p.sum += float64(latencyNs)
	p.n++
}

// Flush closes the open interval.
func (p *SNMPPoller) Flush() { p.close() }

func (p *SNMPPoller) close() {
	if p.n > 0 {
		p.samples = append(p.samples, SNMPSample{
			Time: p.bucketStart, MeanNs: p.sum / float64(p.n), Count: p.n,
		})
	}
	p.sum, p.n = 0, 0
	p.bucketStart += p.IntervalNs
}

// Samples returns all closed poll intervals.
func (p *SNMPPoller) Samples() []SNMPSample { return p.samples }
