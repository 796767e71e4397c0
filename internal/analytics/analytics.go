// Package analytics implements the Ruru Analytics stage (paper §2): it
// consumes raw latency measurements from the measurement engine over the
// message bus, resolves both endpoints against the geo/AS database with a
// pool of workers ("retrieve geographical locations ... using multiple
// threads"), strips the IP addresses for privacy, and republishes the
// enriched records for the storage and frontend stages.
package analytics

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/mq"
)

// Bus topics used by the pipeline stages.
const (
	// TopicRaw carries MarshalMeasurement payloads from the engine.
	TopicRaw = "ruru.raw"
	// TopicEnriched carries MarshalEnriched payloads to sinks.
	TopicEnriched = "ruru.enriched"
)

// Stats counts enricher outcomes.
type Stats struct {
	In           uint64 // raw measurements consumed
	Out          uint64 // enriched measurements published
	LookupMisses uint64 // endpoints not found in the geo DB
	DecodeErrors uint64 // malformed raw messages
	SubDropped   uint64 // raw messages dropped at our subscription HWM
}

// Config configures an Enricher.
type Config struct {
	// DB is the geo/AS database. Required.
	DB *geo.DB
	// Bus carries raw measurements in and enriched measurements out.
	// Required.
	Bus *mq.Bus
	// Workers is the enrichment pool size (default 4, the paper uses
	// "multiple threads").
	Workers int
	// HWM is the raw subscription high-water mark (default mq.DefaultHWM).
	HWM int
}

// Enricher is the analytics stage.
type Enricher struct {
	cfg Config
	sub *mq.Subscription

	in           atomic.Uint64
	out          atomic.Uint64
	lookupMisses atomic.Uint64
	decodeErrors atomic.Uint64
}

// NewEnricher validates cfg and subscribes to the raw topic.
func NewEnricher(cfg Config) (*Enricher, error) {
	if cfg.DB == nil {
		return nil, errors.New("analytics: Config.DB is required")
	}
	if cfg.Bus == nil {
		return nil, errors.New("analytics: Config.Bus is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	sub, err := cfg.Bus.Subscribe(TopicRaw, cfg.HWM)
	if err != nil {
		return nil, err
	}
	return &Enricher{cfg: cfg, sub: sub}, nil
}

// Stats returns a snapshot of the stage counters.
func (e *Enricher) Stats() Stats {
	return Stats{
		In:           e.in.Load(),
		Out:          e.out.Load(),
		LookupMisses: e.lookupMisses.Load(),
		DecodeErrors: e.decodeErrors.Load(),
		SubDropped:   e.sub.Dropped(),
	}
}

// Run processes messages until ctx is cancelled or the bus closes. Once
// ctx is cancelled it still processes the messages already queued, and
// returns when the subscription is empty: cancel it after the producers
// have stopped and nothing is left behind. Publishing never blocks, so
// that drain is bounded by the subscription's high-water mark.
func (e *Enricher) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func (e *Enricher) worker(ctx context.Context) {
	var m core.Measurement
	var enriched Enriched
	scratch := make([]byte, 0, 512)
	for {
		msg, ok := mq.Drain(ctx.Done(), e.sub.C())
		if !ok {
			return
		}
		e.in.Add(1)
		if err := UnmarshalMeasurement(msg.Payload, &m); err != nil {
			e.decodeErrors.Add(1)
			continue
		}
		e.enrich(&m, &enriched)
		scratch = MarshalEnriched(scratch, &enriched)
		// Publish with a copied payload: the bus does not copy and
		// scratch is reused on the next iteration.
		out := make([]byte, len(scratch))
		copy(out, scratch)
		e.cfg.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: out})
		e.out.Add(1)
	}
}

// enrich resolves both endpoints and fills the anonymized record. This is
// the moment IP addresses leave the pipeline.
func (e *Enricher) enrich(m *core.Measurement, out *Enriched) {
	*out = Enriched{
		Time:       m.ACKTime,
		InternalNs: m.Internal,
		ExternalNs: m.External,
		TotalNs:    m.Total,
		IPv6:       m.IPv6,
		SYNRetrans: m.SYNRetrans,
	}
	if rec, ok := e.cfg.DB.Lookup(m.Flow.Client); ok {
		out.Src = Endpoint{CountryCode: rec.CountryCode, Country: rec.Country,
			City: rec.City, Lat: rec.Lat, Lon: rec.Lon, ASN: rec.ASN, ASName: rec.ASName}
	} else {
		e.lookupMisses.Add(1)
		out.Src = Endpoint{CountryCode: "??", Country: "Unknown", City: "Unknown"}
	}
	if rec, ok := e.cfg.DB.Lookup(m.Flow.Server); ok {
		out.Dst = Endpoint{CountryCode: rec.CountryCode, Country: rec.Country,
			City: rec.City, Lat: rec.Lat, Lon: rec.Lon, ASN: rec.ASN, ASName: rec.ASName}
	} else {
		e.lookupMisses.Add(1)
		out.Dst = Endpoint{CountryCode: "??", Country: "Unknown", City: "Unknown"}
	}
}

// BusSink adapts the message bus to the core.Sink interface: the engine's
// measurements are serialized and published on TopicRaw. Emit never blocks
// (bus semantics), so the measurement fast path cannot stall — slow
// consumers shed load at their HWM exactly like the paper's ZeroMQ sockets.
type BusSink struct {
	Bus *mq.Bus
}

// NewBusSink returns a sink publishing to bus.
func NewBusSink(bus *mq.Bus) *BusSink {
	return &BusSink{Bus: bus}
}

// Emit implements core.Sink. It costs one small allocation per measurement
// (the payload's ownership passes to the bus subscribers, so the buffer
// cannot be reused) — measurements arrive at connection rate, orders of
// magnitude below packet rate, so this is off the packet fast path.
func (s *BusSink) Emit(m *core.Measurement) {
	s.Bus.Publish(mq.Message{Topic: TopicRaw, Payload: MarshalMeasurement(nil, m)})
}
