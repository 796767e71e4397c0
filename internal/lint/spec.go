package lint

// The repo spec: the invariants documented in ARCHITECTURE.md, as data.
// When a lock is added or renamed, this file is the one to update — the
// TestRepoSpecResolves test fails if a class stops matching a real field,
// so the spec cannot silently rot.

// RepoLockOrder declares ruru's mutex partial order:
//
//   - tsdb (ARCHITECTURE.md "Lock order"): ckptMu → commitMu → stripe mu
//     → dirMu, with the segment log's syncMu → mu chain (seglog.Log, under
//     the WAL) nesting inside commitMu and nothing ever acquired under
//     dirMu or the log's mu (leaf-only: no outgoing edges). The analyzer
//     works a package at a time, so the edges into seglog from its owners
//     are checked through Acquires: a call to one of the Log methods
//     listed there counts, in tsdb and fed, as taking the log's locks.
//   - fed: Aggregator.mu, aggProbe.mu and Probe.mu have no edges between
//     them — no two of them may ever nest (the PR-5 Stats fix made this
//     an explicit invariant). The spool's segment log nests inside
//     Probe.mu, which is held around every spool call.
//   - core: statsCell.mu is strictly leaf (ARCHITECTURE.md "Continuous
//     RTT": the queue worker owns its trackers lock-free; the cell mutex
//     only guards the per-burst snapshot publish/read hand-off and nothing
//     may be acquired under it — in particular no DB write, since sinks
//     run outside the cell).
//   - nic: Mempool.mu is strictly leaf. Injectors and queue workers take
//     it once per burst to move buffers on or off the free stack and
//     acquire nothing under it; nic.FreeBurst is called from core's poll
//     loop outside the stats cell.
//   - ruru: Pipeline.pairTopMu (the sketch tier's city-pair summary) is
//     strictly leaf: sink workers and /api/topk readers take it for a
//     bounded heap update or copy and may acquire nothing under it. The
//     same goes for RollupDelta.mu (the /ws?stream=rollup accumulator):
//     sink workers fold cells and the flusher swaps the map under it,
//     marshalling outside.
//   - tsdb query cache: queryCache.mu guards only the entry table, LRU
//     list and byte ledger. It is strictly leaf and in particular is never
//     held across a stripe scan — executeCached copies the entry pointer
//     out, scans lock-free, and re-acquires to publish.
func RepoLockOrder() *LockOrderSpec {
	return &LockOrderSpec{
		Classes: []LockClass{
			{ID: "tsdb.ckptMu", Type: "ruru/internal/tsdb.persister", Field: "ckptMu"},
			{ID: "tsdb.commitMu", Type: "ruru/internal/tsdb.DB", Field: "commitMu"},
			{ID: "tsdb.stripeMu", Type: "ruru/internal/tsdb.stripe", Field: "mu"},
			{ID: "tsdb.dirMu", Type: "ruru/internal/tsdb.DB", Field: "dirMu"},
			{ID: "seglog.syncMu", Type: "ruru/internal/seglog.Log", Field: "syncMu"},
			{ID: "seglog.mu", Type: "ruru/internal/seglog.Log", Field: "mu"},
			{ID: "tsdb.qcacheMu", Type: "ruru/internal/tsdb.queryCache", Field: "mu"},
			{ID: "fed.aggMu", Type: "ruru/internal/fed.Aggregator", Field: "mu"},
			{ID: "fed.aggProbeMu", Type: "ruru/internal/fed.aggProbe", Field: "mu"},
			{ID: "fed.probeMu", Type: "ruru/internal/fed.Probe", Field: "mu"},
			{ID: "core.statsCellMu", Type: "ruru/internal/core.statsCell", Field: "mu"},
			{ID: "nic.poolMu", Type: "ruru/internal/nic.Mempool", Field: "mu"},
			{ID: "ruru.pairTopMu", Type: "ruru/internal/ruru.Pipeline", Field: "pairTopMu"},
			{ID: "ruru.rollupDeltaMu", Type: "ruru/internal/ruru.RollupDelta", Field: "mu"},
		},
		Order: [][2]string{
			{"tsdb.ckptMu", "tsdb.commitMu"},
			{"tsdb.commitMu", "tsdb.stripeMu"},
			{"tsdb.stripeMu", "tsdb.dirMu"},
			{"tsdb.commitMu", "seglog.syncMu"},
			{"seglog.syncMu", "seglog.mu"},
			{"fed.probeMu", "seglog.syncMu"},
		},
		Acquires: map[string][]string{
			"(*ruru/internal/seglog.Log).Append": {"seglog.syncMu", "seglog.mu"},
			"(*ruru/internal/seglog.Log).Sync":   {"seglog.syncMu", "seglog.mu"},
			"(*ruru/internal/seglog.Log).Close":  {"seglog.syncMu", "seglog.mu"},
			"(*ruru/internal/seglog.Log).Rotate": {"seglog.mu"},
			"(*ruru/internal/seglog.Log).Stats":  {"seglog.mu"},
			"ruru/internal/nic.FreeBurst":        {"nic.poolMu"},
			"(*ruru/internal/nic.Buf).Free":      {"nic.poolMu"},
		},
	}
}

// RepoMustCheck lists the APIs whose dropped results have bitten before.
func RepoMustCheck() *MustCheckSpec {
	return &MustCheckSpec{Funcs: []string{
		"(*ruru/internal/tsdb.DB).Close",
		"(*ruru/internal/tsdb.DB).Write",
		"(*ruru/internal/tsdb.DB).WriteBatch",
		"(*ruru/internal/tsdb.DB).WriteBatchRef",
		"(*ruru/internal/tsdb.DB).Checkpoint",
		"(*ruru/internal/tsdb.DB).Snapshot",
		"(*ruru/internal/tsdb.wal).AppendPoints",
		"(*ruru/internal/seglog.Log).Append",
		"(*ruru/internal/seglog.Log).Rotate",
		"(*ruru/internal/seglog.Log).Sync",
		"(*ruru/internal/seglog.Log).Close",
		"ruru/internal/mq.WriteFrame",
		"(*ruru/internal/ruru.Pipeline).Close",
		"(*ruru/internal/fed.Probe).Close",
	}}
}

// Analyzers returns the full suite, configured for this repository, in
// the order ruru-vet runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder(RepoLockOrder()),
		AtomicMix(),
		NoAlloc(),
		MustCheck(RepoMustCheck()),
	}
}
