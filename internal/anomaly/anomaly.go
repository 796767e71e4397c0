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
//   - SpikeBank and RateAlarm are safe for concurrent use: each holds one
//     lock over its per-key state and its event log. Detection state is per
//     key, so results are deterministic as long as each KEY's samples
//     arrive in order — which the sink guarantees by hashing every src→dst
//     pair to a single worker. Offers for different keys may interleave
//     freely.
//   - SpikeDetector is single-goroutine; the pipeline uses it only through
//     a SpikeBank.
//   - SNMPPoller is single-goroutine; its users own theirs.
package anomaly

import (
	"fmt"
	"maps"
	"slices"
	"sync"
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
	// spikeWindow is the number of recent samples forming a key's latency
	// baseline.
	spikeWindow = 512
	// spikeK is the robust z-score threshold: a sample is anomalous when
	// x − median > spikeK · max(MAD, minMADNs).
	spikeK = 8
	// spikeMinSamples is how many samples a key sees before it can alarm.
	spikeMinSamples = 64
	// minMADNs floors the spike detector's MAD (1 ms) so ultra-stable
	// baselines don't turn noise into alarms.
	minMADNs = 1e6
	// rateBucketNs is the rate alarms' counting interval (1 s), and
	// rateWarmup the buckets a key counts before it can alarm.
	rateBucketNs = 1e9
	rateWarmup   = 5
	// baselineAlpha is the EWMA weight of the rate alarms' baselines.
	baselineAlpha = 0.05
	// maxKeys bounds the keys a SpikeBank or RateAlarm tracks; keys beyond
	// it are not tracked.
	maxKeys = 4096
	// maxEvents bounds the events a SpikeBank or RateAlarm keeps: the
	// newest, oldest first.
	maxEvents = 4096
)

// eventLog keeps the newest maxEvents events. Its owner's lock guards it.
type eventLog struct {
	ring []Event
	next int // the oldest event once the ring is full
}

func (l *eventLog) add(ev Event) {
	if len(l.ring) < maxEvents {
		l.ring = append(l.ring, ev)
		return
	}
	l.ring[l.next] = ev
	l.next = (l.next + 1) % maxEvents
}

// events returns a copy of the log, oldest first.
func (l *eventLog) events() []Event {
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}

// SpikeDetector flags individual measurements far outside the recent
// latency distribution. It uses median/MAD, not mean/stddev: a 4000 ms
// outlier would inflate a standard deviation enough to hide its successors,
// but barely moves the median (see rollingMedian).
//
// Not safe for concurrent use; shard per key (e.g. per city pair) with
// SpikeBank.
type SpikeDetector struct {
	window *rollingMedian
	seen   int
}

// NewSpikeDetector returns a detector with an empty baseline.
func NewSpikeDetector() *SpikeDetector {
	return &SpikeDetector{window: newRollingMedian(spikeWindow)}
}

// Offer examines one latency sample (ns). It returns a non-nil Event when
// the sample is anomalous. Anomalous samples are NOT added to the baseline
// (self-poisoning protection), so after a lasting level shift every sample
// is an event; the detector keeps none of them — what to retain is the
// caller's choice.
func (d *SpikeDetector) Offer(ts int64, latencyNs int64) *Event {
	x := float64(latencyNs)
	if d.seen >= spikeMinSamples {
		med := d.window.Median()
		mad := max(d.window.MAD(), minMADNs)
		if x-med > spikeK*mad { // one-sided: slow is anomalous, fast is fine
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

// SpikeBank shards SpikeDetectors by key (city pair, AS pair...), tracks
// at most maxKeys keys, and keeps the newest maxEvents detections.
type SpikeBank struct {
	mu    sync.Mutex
	byKey map[string]*SpikeDetector
	log   eventLog
}

// NewSpikeBank returns an empty bank.
func NewSpikeBank() *SpikeBank {
	return &SpikeBank{byKey: make(map[string]*SpikeDetector)}
}

// Offer routes the sample to its key's detector and logs any detection.
// Safe for concurrent use; per-key determinism requires each key's samples
// to arrive in order (one offering goroutine per key, as the sharded sink
// guarantees).
func (b *SpikeBank) Offer(key string, ts, latencyNs int64) *Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.byKey[key]
	if !ok {
		if len(b.byKey) >= maxKeys {
			return nil
		}
		d = NewSpikeDetector()
		b.byKey[key] = d
	}
	ev := d.Offer(ts, latencyNs)
	if ev != nil {
		b.log.add(*ev)
	}
	return ev
}

// Keys returns the number of tracked keys.
func (b *SpikeBank) Keys() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byKey)
}

// Events returns the newest maxEvents detections, oldest first.
func (b *SpikeBank) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.events()
}

// rateKind is what tells one rate alarm from another: its thresholds and
// its event text. A key alarms when a bucket's count reaches minCount and
// exceeds ratio × (baseline + 1).
type rateKind struct {
	name            string // Event.Kind
	ratio, minCount float64
	detail          func(key string, count int, base float64) string
}

var (
	synFlood = rateKind{name: "syn_flood", ratio: 8, minCount: 100,
		detail: func(_ string, count int, base float64) string {
			return fmt.Sprintf("%d unanswered SYNs in %.0fs bucket (baseline %.1f)",
				count, float64(rateBucketNs)/1e9, base)
		}}
	connSurge = rateKind{name: "conn_surge", ratio: 6, minCount: 50,
		detail: func(key string, count int, base float64) string {
			return fmt.Sprintf("%s: %d connections/bucket (baseline %.1f)", key, count, base)
		}}
)

// RateAlarm counts occurrences per key in 1 s buckets and raises one event
// per episode in which a key's bucket count surges over its EWMA baseline;
// alarm buckets do not feed the baseline. It tracks at most maxKeys keys
// and keeps the newest maxEvents events. Two kinds share it:
//
//   - NewFloodAlarm counts handshakes that expired unanswered, under one
//     key — the paper's "SYN floods can also be identified in real-time".
//   - NewSurgeAlarm counts completed connections per key (e.g. a "src→dst"
//     city pair) — "unusual number of TCP connections between two
//     locations".
//
// Safe for concurrent use.
type RateAlarm struct {
	kind   rateKind
	mu     sync.Mutex
	perKey map[string]*rateState
	log    eventLog
}

type rateState struct {
	bucketStart int64
	count       float64
	baseline    ewma
	buckets     int
	inAlarm     bool
}

// NewFloodAlarm returns a SYN-flood alarm: it alarms on a bucket of at
// least 100 unanswered handshakes and more than 8 × (baseline + 1).
func NewFloodAlarm() *RateAlarm { return newRateAlarm(synFlood) }

// NewSurgeAlarm returns a connection-surge alarm: it alarms on a key's
// bucket of at least 50 connections and more than 6 × (baseline + 1).
func NewSurgeAlarm() *RateAlarm { return newRateAlarm(connSurge) }

func newRateAlarm(kind rateKind) *RateAlarm {
	return &RateAlarm{kind: kind, perKey: make(map[string]*rateState)}
}

// ObserveUnanswered records a handshake that expired without completing:
// Observe under the flood alarm's one key.
func (a *RateAlarm) ObserveUnanswered(ts int64) { a.Observe("", ts) }

// Observe counts one occurrence for key at ts.
func (a *RateAlarm) Observe(key string, ts int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.perKey[key]
	if !ok {
		if len(a.perKey) >= maxKeys {
			return
		}
		st = &rateState{bucketStart: ts - ts%rateBucketNs}
		a.perKey[key] = st
	}
	for ts >= st.bucketStart+rateBucketNs {
		a.closeBucketLocked(key, st)
	}
	st.count++
}

// Flush closes every key's open bucket (end of trace), keys in sorted
// order so that events raised together are logged in the same order on
// every run.
func (a *RateAlarm) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(a.perKey)) {
		a.closeBucketLocked(key, a.perKey[key])
	}
}

func (a *RateAlarm) closeBucketLocked(key string, st *rateState) {
	base := st.baseline.value
	if st.buckets >= rateWarmup &&
		st.count >= a.kind.minCount && st.count > a.kind.ratio*(base+1) {
		if !st.inAlarm {
			a.log.add(Event{
				Time: st.bucketStart, Kind: a.kind.name,
				Detail: a.kind.detail(key, int(st.count), base),
				Value:  st.count, Baseline: base,
			})
			st.inAlarm = true
		}
	} else {
		st.baseline.add(st.count)
		st.inAlarm = false
	}
	st.count = 0
	st.buckets++
	st.bucketStart += rateBucketNs
}

// Events returns the newest maxEvents events, oldest first.
func (a *RateAlarm) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.log.events()
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
