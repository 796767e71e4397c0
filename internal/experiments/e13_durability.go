package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"ruru/internal/tsdb"
)

// E13Result measures the durability tentpole from both sides:
//
//   - Cost: the batched TSDB write path in-memory versus WAL-logged at
//     fsync=off and fsync=interval — OverheadPct (interval vs in-memory)
//     is the headline number. The ≤15% acceptance target is set on the
//     steady-series shape of the wal/write-interval bench entry
//     (internal/bench), where the WAL's own cost is isolated; this experiment randomizes the series per point and
//     writes at disk-saturating rate, so it additionally prices shape-
//     dictionary lookups and the kernel writeback that a deployment at
//     realistic rates amortizes over idle time — treat its number as the
//     harsher upper bound.
//   - Benefit: after a checkpoint mid-stream and a clean close, a fresh
//     open of the same directory must recover every point, and both the
//     raw path and the rebuilt rollup tiers must serve the dashboard
//     query with exactly the pre-restart aggregates.
type E13Result struct {
	Points int
	Batch  int

	MemRate      float64 // points/s, in-memory WriteBatch
	WALOffRate   float64 // points/s, fsync=off
	WALIntRate   float64 // points/s, fsync=interval
	OverheadPct  float64 // (tInterval - tMem) / tMem, percent
	CheckpointMS float64 // one full checkpoint at half load

	Restored    uint64 // points recovered from the checkpoint
	Replayed    uint64 // points recovered from the WAL tail
	RecoverOK   bool   // Restored+Replayed == Points
	ExactAggs   bool   // raw query after reopen bit-equal to before
	TierRebuilt bool   // reopen serves from a tier, equal to raw
}

// E13Config parameterizes the durability experiment.
type E13Config struct {
	Seed   int64
	Points int // default 200k
	Batch  int // default 64
}

// E13 writes the same deterministic latency workload through three DB
// configurations to price the WAL, then exercises the full recovery path:
// checkpoint at half load, clean close, reopen, and raw/tier query
// equivalence against the pre-restart state.
func E13(cfg E13Config, w io.Writer) (E13Result, error) {
	if cfg.Points <= 0 {
		cfg.Points = 200_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	res := E13Result{Points: cfg.Points, Batch: cfg.Batch}

	mkBatches := func() [][]tsdb.Point {
		rng := rand.New(rand.NewSource(cfg.Seed))
		batches := make([][]tsdb.Point, 0, cfg.Points/cfg.Batch+1)
		for i := 0; i < cfg.Points; {
			n := cfg.Batch
			if cfg.Points-i < n {
				n = cfg.Points - i
			}
			batch := make([]tsdb.Point, n)
			for j := range batch {
				batch[j] = tsdb.Point{
					Name: "latency",
					Tags: []tsdb.Tag{
						{Key: "src_city", Value: fmt.Sprintf("City%d", rng.Intn(8))},
						{Key: "dst_city", Value: "Los Angeles"},
					},
					// Integer-valued ms so float sums reorder exactly and
					// the post-restart comparison can demand bit equality.
					Fields: []tsdb.Field{{Key: "total_ms", Value: float64(100 + rng.Intn(300))}},
					Time:   int64(i+j) * 1e7, // 100µs apart: ~33min of data
				}
			}
			batches = append(batches, batch)
			i += n
		}
		return batches
	}

	run := func(db *tsdb.DB, batches [][]tsdb.Point, from, to int) (float64, error) {
		start := time.Now()
		n := 0
		for _, b := range batches[from:to] {
			applied, err := db.WriteBatch(b)
			if err != nil {
				return 0, err
			}
			n += applied
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}
	// The cost legs run INTERLEAVED (mem, off, interval, mem, off, …) on
	// fresh DBs and each config takes its median: the true WAL cost is
	// small enough that sequential one-shot legs diverge with whatever
	// drift (GC debt, writeback, noisy neighbors) happens to fall on one
	// of them, while interleaving exposes every config to the same
	// conditions.
	const attempts = 3
	oneRun := func(open func() (*tsdb.DB, error), batches [][]tsdb.Point) (float64, error) {
		db, err := open()
		if err != nil {
			return 0, err
		}
		rate, err := run(db, batches, 0, len(batches))
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return rate, err
	}
	median := func(rates []float64) float64 {
		sort.Float64s(rates)
		return rates[len(rates)/2]
	}

	// 1. The query oracle: one in-memory population kept for comparison.
	memDB := tsdb.Open(tsdb.Options{Rollups: tsdb.DefaultRollups()})
	memBatches := mkBatches()
	var err error
	if _, err = run(memDB, memBatches, 0, len(memBatches)); err != nil {
		return res, err
	}

	query := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: (int64(cfg.Points)*1e7 + 60e9 - 1) / 60e9 * 60e9,
		Window: 60e9, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMin, tsdb.AggMax, tsdb.AggSum, tsdb.AggMean},
	}
	runQuery := func(db *tsdb.DB, resolution int64) ([]tsdb.SeriesResult, error) {
		q := query
		q.Resolution = resolution
		return db.Execute(q)
	}
	wantRaw, err := runQuery(memDB, tsdb.ResolutionRaw)
	if err != nil {
		return res, err
	}
	if err := memDB.Close(); err != nil {
		return res, err
	}

	// 2. Interleaved cost legs: in-memory, WAL fsync=off (marshal+write,
	// no fsync) and WAL fsync=interval (the production default), each on
	// a fresh DB / throwaway directory per attempt.
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	openMem := func() (*tsdb.DB, error) {
		return tsdb.Open(tsdb.Options{Rollups: tsdb.DefaultRollups()}), nil
	}
	openPersist := func(pattern string, fsync tsdb.FsyncPolicy) func() (*tsdb.DB, error) {
		return func() (*tsdb.DB, error) {
			dir, err := os.MkdirTemp("", pattern)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, dir)
			return tsdb.OpenDB(tsdb.Options{Rollups: tsdb.DefaultRollups(),
				Persist: &tsdb.PersistOptions{Dir: dir, Fsync: fsync, CheckpointEvery: -1}})
		}
	}
	var memRates, offRates, intRates []float64
	for a := 0; a < attempts; a++ {
		for _, leg := range []struct {
			open  func() (*tsdb.DB, error)
			rates *[]float64
		}{
			{openMem, &memRates},
			{openPersist("ruru-e13-off-*", tsdb.FsyncOff), &offRates},
			{openPersist("ruru-e13-int-*", tsdb.FsyncInterval), &intRates},
		} {
			rate, err := oneRun(leg.open, memBatches)
			if err != nil {
				return res, err
			}
			*leg.rates = append(*leg.rates, rate)
		}
	}
	res.MemRate = median(memRates)
	res.WALOffRate = median(offRates)
	res.WALIntRate = median(intRates)
	if res.WALIntRate > 0 && res.MemRate > 0 {
		res.OverheadPct = (res.MemRate/res.WALIntRate - 1) * 100
	}

	// 3. The recovery story: checkpoint at half load, finish, clean close,
	// reopen, compare against the in-memory oracle.
	intDir, err := os.MkdirTemp("", "ruru-e13-rec-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(intDir)
	intOpts := tsdb.Options{Rollups: tsdb.DefaultRollups(),
		Persist: &tsdb.PersistOptions{Dir: intDir, Fsync: tsdb.FsyncInterval, CheckpointEvery: -1}}
	intDB, err := tsdb.OpenDB(intOpts)
	if err != nil {
		return res, err
	}
	intBatches := mkBatches()
	half := len(intBatches) / 2
	if _, err := run(intDB, intBatches, 0, half); err != nil {
		return res, err
	}
	ckStart := time.Now()
	if _, err := intDB.Checkpoint(); err != nil {
		return res, err
	}
	res.CheckpointMS = float64(time.Since(ckStart).Microseconds()) / 1e3
	if _, err := run(intDB, intBatches, half, len(intBatches)); err != nil {
		return res, err
	}
	if err := intDB.Close(); err != nil {
		return res, err
	}

	reDB, err := tsdb.OpenDB(intOpts)
	if err != nil {
		return res, err
	}
	// reDB is read-only verification state; nothing new was written, so
	// a close error cannot change what the experiment measured.
	defer func() { _ = reDB.Close() }()
	ps := reDB.PersistStats()
	res.Restored, res.Replayed = ps.RestoredPoints, ps.WALReplayedPoints
	res.RecoverOK = res.Restored+res.Replayed == uint64(cfg.Points)
	gotRaw, err := runQuery(reDB, tsdb.ResolutionRaw)
	if err != nil {
		return res, err
	}
	gotTier, err := runQuery(reDB, tsdb.ResolutionAuto)
	if err != nil {
		return res, err
	}
	res.ExactAggs = seriesResultsEqual(gotRaw, wantRaw, query.Aggs)
	res.TierRebuilt = len(gotTier) > 0 && gotTier[0].Tier != 0 &&
		seriesResultsEqual(gotTier, wantRaw, query.Aggs)

	if w != nil {
		fmt.Fprintf(w, "E13: durable storage — WAL cost and crash recovery (%d points, batch %d)\n",
			res.Points, res.Batch)
		fmt.Fprintf(w, "  in-memory WriteBatch        %12.0f points/s\n", res.MemRate)
		fmt.Fprintf(w, "  WAL fsync=off               %12.0f points/s\n", res.WALOffRate)
		fmt.Fprintf(w, "  WAL fsync=interval          %12.0f points/s\n", res.WALIntRate)
		fmt.Fprintf(w, "  write-path overhead         %11.1f%%  (≤15%% target is set on the\n"+
			"    wal/write-interval bench entry's steady-series shape; this leg randomizes the\n"+
			"    series per point and runs at disk-saturating rate, so it also pays\n"+
			"    dictionary lookups and the kernel writeback a real deployment\n"+
			"    spreads over idle time)\n", res.OverheadPct)
		fmt.Fprintf(w, "  checkpoint at half load     %11.1fms\n", res.CheckpointMS)
		fmt.Fprintf(w, "  recovery: %d from checkpoint + %d from WAL = all %d: %v\n",
			res.Restored, res.Replayed, res.Points, res.RecoverOK)
		fmt.Fprintf(w, "  post-restart equivalence    raw exact=%v, tiers rebuilt+exact=%v\n",
			res.ExactAggs, res.TierRebuilt)
	}
	return res, nil
}

// seriesResultsEqual compares the exact aggregates of two result sets
// (group order is already sorted by Execute).
func seriesResultsEqual(got, want []tsdb.SeriesResult, aggs []tsdb.AggKind) bool {
	if len(got) != len(want) {
		return false
	}
	for g := range got {
		if got[g].Group != want[g].Group || len(got[g].Buckets) != len(want[g].Buckets) {
			return false
		}
		for i := range got[g].Buckets {
			gb, wb := got[g].Buckets[i], want[g].Buckets[i]
			if gb.Count != wb.Count {
				return false
			}
			for _, k := range aggs {
				gv, wv := gb.Aggs[k], wb.Aggs[k]
				if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
					return false
				}
			}
		}
	}
	return true
}
