package ruru

// Read-side accessors for the bounded-memory sketch tier: merged top-K
// views across the per-queue tiers plus the global city-pair summary.
// These back GET /api/topk.

import (
	"net/netip"

	"ruru/internal/sketch"
)

// SketchEnabled reports whether the bounded-memory sketch tier is running
// (Config.FlowTableBytes > 0).
func (p *Pipeline) SketchEnabled() bool { return p.Sketch != nil }

// TopFlows returns up to n highest-volume flows (bytes) across all queues
// (n <= 0: all tracked). RSS gives every flow single-queue affinity, so the
// per-queue summaries hold disjoint keys and concatenation is an exact
// merge. Reads the workers' published snapshots, ranked by sketch.Rank;
// nil without the sketch tier.
func (p *Pipeline) TopFlows(n int) []sketch.Item[sketch.FlowID] {
	if p.Sketch == nil {
		return nil
	}
	var all []sketch.Item[sketch.FlowID]
	for _, t := range p.Sketch {
		all = append(all, t.Snapshot().Flows...)
	}
	sketch.Rank(all, sketch.FlowID.Compare)
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// TopPrefixes returns up to n highest-volume source prefixes (/24 for v4,
// /48 for v6) across all queues. Unlike flows, one prefix spans many flows
// and therefore many queues, so entries are merged by key. A queue that
// does not track the prefix contributes its space-saving bound for
// untracked keys (Snapshot.PrefixMin, 0 until its summary is full) to both
// Count and Err, so the merged Count still never undercounts and Count-Err
// stays a lower bound. Ranked by sketch.Rank, so ties at the n cutoff
// resolve by key, the same on every call.
func (p *Pipeline) TopPrefixes(n int) []sketch.Item[netip.Prefix] {
	if p.Sketch == nil {
		return nil
	}
	// covered sums the bounds of the queues that track the key: the merge
	// adds every queue's bound, less those.
	type entry struct {
		it      sketch.Item[netip.Prefix]
		covered uint64
	}
	var bound uint64
	merged := make(map[netip.Prefix]*entry)
	for _, t := range p.Sketch {
		snap := t.Snapshot()
		bound += snap.PrefixMin
		for _, it := range snap.Prefixes {
			e := merged[it.Key]
			if e == nil {
				e = &entry{it: sketch.Item[netip.Prefix]{Key: it.Key}}
				merged[it.Key] = e
			}
			e.it.Count += it.Count
			e.it.Err += it.Err
			e.covered += snap.PrefixMin
		}
	}
	all := make([]sketch.Item[netip.Prefix], 0, len(merged))
	for _, e := range merged {
		e.it.Count += bound - e.covered
		e.it.Err += bound - e.covered
		all = append(all, e.it)
	}
	sketch.Rank(all, sketch.ComparePrefix)
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// TopPairs returns up to n (src_city,dst_city) pairs by measurement count,
// each with its latency aggregate (count/min/max/sum over the pair's tenure
// in the summary). Fed by the sink stage; nil without the sketch tier.
func (p *Pipeline) TopPairs(n int) []sketch.Item[string] {
	if p.pairTop == nil {
		return nil
	}
	p.pairTopMu.Lock()
	out := p.pairTop.Top(nil, n)
	p.pairTopMu.Unlock()
	return out
}
