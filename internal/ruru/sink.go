package ruru

// The sharded sink stage: everything downstream of the enricher.
//
// PR 1 made the ingest side (ring → nic → core) batched and lossless, but
// the storage/visualization side still funnelled every enriched measurement
// through a single goroutine into a TSDB guarded by one global mutex — the
// "collector can't keep up" failure mode that silently invalidates a
// measurement system's output. This file replaces that consumer with a pool
// of sink workers:
//
//	sinkSub ──► dispatcher ──► shard 0 worker ──► { WriteBatch, detectors,
//	           (decode+hash)   shard 1 worker       arc ring, WS frame }
//	                           ...
//
// Measurements are partitioned by a hash of the src_city→dst_city pair, so
// each anomaly-detector key and each TSDB latency series keeps single-worker
// affinity: per-key processing order is preserved and per-key state never
// crosses workers. Workers drain their shard channel in bursts of up to
// SinkBatch, write the TSDB points with one batched, stripe-locked call, and
// coalesce the burst into one WebSocket frame — skipping JSON marshalling
// entirely when no client is connected.

import (
	"context"
	"encoding/json"
	"sort"

	"ruru/internal/analytics"
	"ruru/internal/hashx"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// sinkItem is one decoded enriched measurement routed to a sink worker,
// with the detector key precomputed by the dispatcher.
type sinkItem struct {
	e    analytics.Enriched
	pair string
}

// sinkShardDepth is the per-worker channel capacity. Together with the
// subscription HWM it bounds in-flight measurements; a stalled worker
// backpressures the dispatcher, which surfaces as SinkDrop at the HWM.
const sinkShardDepth = 4096

// pairKey is the detector/shard-routing key of a measurement. The format
// is load-bearing: it decides both worker affinity and anomaly-detector
// state keys, so every ingress path must build it through this helper.
func pairKey(e *analytics.Enriched) string {
	return e.Src.City + "→" + e.Dst.City
}

// shardFor routes a detector key to its sink shard.
func (p *Pipeline) shardFor(pair string) *sinkShard {
	return p.sinkShards[hashx.FNV1a32(pair)%uint32(len(p.sinkShards))]
}

// runSinkDispatcher drains the enriched subscription, decodes each message
// and hands it to its shard's worker. Decode failures are counted in
// Stats().SinkDecodeErrors (they used to be silently discarded);
// subscription HWM overflow is visible as Stats().SinkDrop.
func (p *Pipeline) runSinkDispatcher(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-p.sinkSub.C():
			if !ok {
				return
			}
			p.routeSink(ctx, msg)
		}
	}
}

func (p *Pipeline) routeSink(ctx context.Context, msg mq.Message) {
	var it sinkItem
	if err := analytics.UnmarshalEnriched(msg.Payload, &it.e); err != nil {
		p.sinkDecodeErrors.Add(1)
		return
	}
	it.pair = pairKey(&it.e)
	sh := p.shardFor(it.pair)
	select {
	case sh.ch <- it:
	case <-ctx.Done():
	}
}

// runSinkWorker owns one shard: it drains the shard channel in bursts of up
// to SinkBatch and dispatches each burst to every output.
func (p *Pipeline) runSinkWorker(ctx context.Context, sh *sinkShard) {
	batch := make([]sinkItem, 0, p.cfg.SinkBatch)
	// Shard channels are never closed: the worker's only exit is ctx
	// cancellation, which abandons whatever is still queued (see the
	// Stats ledger doc).
	for {
		select {
		case <-ctx.Done():
			return
		case it := <-sh.ch:
			batch = append(batch[:0], it)
		fill:
			for len(batch) < cap(batch) {
				select {
				case it := <-sh.ch:
					batch = append(batch, it)
				default:
					break fill
				}
			}
			p.consumeBatch(sh, batch)
		}
	}
}

// seriesRefFor returns the interned TSDB handle for e's latency series,
// consulting the shard's worker-private cache. Steady state is one key
// build into reused scratch plus a no-alloc map probe; only a
// never-seen identity takes the Ref slow path.
func (p *Pipeline) seriesRefFor(sh *sinkShard, e *analytics.Enriched) (tsdb.SeriesRef, error) {
	sh.keyBuf = analytics.AppendLatencyKey(sh.keyBuf[:0], e)
	if ref, ok := sh.refs[string(sh.keyBuf)]; ok {
		return ref, nil
	}
	pt := analytics.LatencyPoint(e)
	ref, err := p.DB.Ref(pt.Name, pt.Tags, analytics.LatencyFieldKeys()...)
	if err != nil {
		return 0, err
	}
	sh.refs[string(sh.keyBuf)] = ref
	return ref, nil
}

// writeSinkBatch converts one burst into RefPoints backed by the shard's
// value arena and writes them through the interned-handle TSDB path. The
// steady state (arena warm, refs interned) must not allocate — the noalloc
// analyzer enforces the construct-level discipline; the sink benchmark
// gates the measured allocs/op.
//
//ruru:noalloc
func (p *Pipeline) writeSinkBatch(sh *sinkShard, batch []sinkItem) {
	// Reserve the value arena up front so Vals subslices stay valid while
	// the arena fills.
	need := len(batch) * 3
	if cap(sh.vals) < need {
		sh.vals = make([]float64, 0, need)
	}
	vals := sh.vals[:0]
	rpts := sh.rpts[:0]
	for i := range batch {
		e := &batch[i].e
		ref, err := p.seriesRefFor(sh, e)
		if err != nil {
			// Only a Close racing this worker can fail here; the point is
			// unwritable, so account for it immediately.
			p.sinkWriteErrors.Add(1)
			continue
		}
		n := len(vals)
		vals = analytics.AppendLatencyVals(vals, e)
		rpts = append(rpts, tsdb.RefPoint{Ref: ref, Time: e.Time, Vals: vals[n:len(vals):len(vals)]})
	}
	sh.vals, sh.rpts = vals, rpts
	if applied, err := p.DB.WriteBatchRef(rpts); err != nil {
		// Count exactly the unapplied remainder — points in stripes written
		// before the failure are already in DBPoints — so the ledger stays
		// honest.
		p.sinkWriteErrors.Add(uint64(len(rpts) - applied))
	}
}

// consumeBatch dispatches one burst to all sinks: a single striped-lock
// TSDB batch write through interned series handles (zero-alloc at steady
// state), then the fan-out.
func (p *Pipeline) consumeBatch(sh *sinkShard, batch []sinkItem) {
	p.writeSinkBatch(sh, batch)
	p.fanOut(sh, batch)
}

// fanOut hands one burst to everything downstream of the TSDB write: one
// coalesced WebSocket frame (only marshalled when a client is connected,
// into the shard's reusable frame buffer), the anomaly detectors in
// arrival order, the city-pair summary and the shard's arc ring. It touches no worker-private shard state — only what
// sh.mu guards — so Feed may call it beside the owning worker.
func (p *Pipeline) fanOut(sh *sinkShard, batch []sinkItem) {
	if p.Hub.LiveClients() > 0 {
		sh.mu.Lock()
		frame := sh.frameBuf[:0]
		for i := range batch {
			frame = append(frame, batch[i].e)
		}
		sh.frameBuf = frame
		data, err := json.Marshal(frame)
		sh.mu.Unlock()
		if err == nil {
			// data is freshly allocated per call — the Hub retains it in
			// client queues, so only the frame scratch is reusable.
			p.Hub.Broadcast(data)
		}
	}

	for i := range batch {
		p.offerDetectors(&batch[i].e, batch[i].pair)
	}

	if p.pairTop != nil {
		// One lock round per burst: the city-pair latency summary is a
		// leaf lock shared by all sink workers (pairs cross shards only
		// via Feed, but the summary is global either way).
		p.pairTopMu.Lock()
		for i := range batch {
			p.pairTop.UpdateLat(batch[i].pair, 1, float64(batch[i].e.TotalNs)/1e6)
		}
		p.pairTopMu.Unlock()
	}

	sh.mu.Lock()
	for i := range batch {
		sh.pushArcLocked(&batch[i].e)
	}
	sh.mu.Unlock()
}

// offerDetectors feeds one measurement to the anomaly detectors. They are
// safe for concurrent use (internal locks); single-worker shard affinity
// additionally keeps per-key offer order deterministic.
func (p *Pipeline) offerDetectors(e *analytics.Enriched, pair string) {
	if ev := p.Spikes.Offer(pair, e.Time, e.TotalNs); ev != nil {
		p.spikeEventsMu.Lock()
		if len(p.spikeEvents) < maxSpikeEvents {
			p.spikeEvents = append(p.spikeEvents, *ev)
		} else {
			p.spikeEvents[p.spikePos] = *ev
			p.spikePos = (p.spikePos + 1) % maxSpikeEvents
		}
		p.spikeEventsMu.Unlock()
	}
	p.Surge.Observe(pair, e.Time)
}

// pushArcLocked appends one measurement to the shard's arc ring. Caller
// holds sh.mu.
func (sh *sinkShard) pushArcLocked(e *analytics.Enriched) {
	if len(sh.arcsBuf) < cap(sh.arcsBuf) {
		sh.arcsBuf = append(sh.arcsBuf, *e)
	} else {
		sh.arcsBuf[sh.arcsPos] = *e
		sh.arcsPos = (sh.arcsPos + 1) % cap(sh.arcsBuf)
	}
}

// orderedArcsLocked returns the shard ring's contents oldest→newest.
// Caller holds sh.mu.
func (sh *sinkShard) orderedArcsLocked() []analytics.Enriched {
	out := make([]analytics.Enriched, 0, len(sh.arcsBuf))
	if len(sh.arcsBuf) < cap(sh.arcsBuf) {
		return append(out, sh.arcsBuf...)
	}
	out = append(out, sh.arcsBuf[sh.arcsPos:]...)
	return append(out, sh.arcsBuf[:sh.arcsPos]...)
}

// Feed injects an enriched measurement directly into the sink stage,
// bypassing packet processing and the worker pool — synchronous, used by
// harnesses and the quickstart example to exercise storage/visualization in
// isolation. Safe concurrently with a running pipeline: it takes the same
// per-shard lock as the owning worker, though cross-call ordering against
// bus-delivered measurements on the same key is then unspecified.
func (p *Pipeline) Feed(e *analytics.Enriched) {
	item := [1]sinkItem{{e: *e, pair: pairKey(e)}}
	// The interned-handle cache belongs to the shard's worker, so the
	// point goes through the string-keyed write.
	pt := analytics.LatencyPoint(e)
	if err := p.DB.Write(&pt); err != nil {
		p.sinkWriteErrors.Add(1)
	}
	p.fanOut(p.shardFor(item[0].pair), item[:])
}

// RecentArcs returns up to n of the most recent enriched measurements for
// the live map, merged across the per-worker arc rings by measurement time
// (n <= 0: everything retained, at most SinkWorkers × arcsBuffer).
// "Most recent" is approximate when completion timestamps arrive slightly
// out of order within a shard: the per-shard tail is taken in arrival
// order before the cross-shard sort — fine for a live visualization feed,
// and it avoids copying every ring on each request.
func (p *Pipeline) RecentArcs(n int) []analytics.Enriched {
	var all []analytics.Enriched
	for _, sh := range p.sinkShards {
		sh.mu.Lock()
		arcs := sh.orderedArcsLocked()
		// The newest n of the merged set can only come from the newest n
		// of each shard, so drop each shard's older remainder before the
		// cross-shard sort instead of copying the whole ring.
		if n > 0 && n < len(arcs) {
			arcs = arcs[len(arcs)-n:]
		}
		all = append(all, arcs...)
		sh.mu.Unlock()
	}
	// Each shard is already oldest→newest; a stable sort by time merges
	// them without reordering same-timestamp entries within a shard.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}
