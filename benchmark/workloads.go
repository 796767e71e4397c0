package main

import (
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

// workload is one traffic mix plus the pipeline deviations it runs with.
// Everything not listed is the cmd/ruru flag default.
type workload struct {
	name string
	why  string

	// mix is the generator configuration; Seed, World and Duration are
	// filled in per run.
	mix gen.Config
	// open selects the open loop: the trace is paced 1:1 on its own clock
	// for the whole run, unlooped, into a Drop-policy port. Otherwise the
	// trace (lapSeconds of generator time, ≈300 k packets) is looped through
	// a Block-policy port as fast as the pipeline takes it.
	open       bool
	lapSeconds float64
	// probeSpeed is the pacing of the latency probe that follows a closed
	// loop, as a multiple of the trace clock, chosen to offer roughly a
	// tenth of the closed-loop capacity.
	probeSpeed float64

	persist  bool // durable TSDB in a scratch directory
	trackers bool // TrackTimestamps + TrackSeq + the sketch tier
	// history is how many latency points are preloaded at historyRate
	// before traffic starts; restart says the preload is checkpointed,
	// extended by restartTail more points and reopened, so set-up contains
	// one checkpoint load and one WAL replay.
	history int
	restart bool
	// queries says the dashboard query runs on a schedule beside ingest.
	queries bool
}

const (
	historyRate  = 50     // preloaded points per second of history
	restartTail  = 30_000 // points written after the checkpoint, before reopen
	flowTableCap = 256 << 20
)

var workloads = []workload{
	{
		name: "bulk",
		why:  "packet path: 1.5% of packets complete a handshake, so nic, ring, pkt.Parse and core negative lookups do nearly all the work",
		mix: gen.Config{FlowRate: 2000, DataSegments: 40, UDPRate: 8000,
			MidstreamRate: 100, IPv6Fraction: 0.15},
		lapSeconds: 2, probeSpeed: 1,
	},
	{
		name: "handshake",
		why:  "measurement path: 10% of packets complete a handshake, so core inserts, both bus hops, enrich, sink, tsdb ref writes and the WAL are the bottleneck",
		mix: gen.Config{FlowRate: 20000, DataSegments: 3, UDPRate: 4000,
			MidstreamRate: 1000},
		lapSeconds: 1.5, probeSpeed: 0.5,
		persist: true,
	},
	{
		name: "trackers",
		why:  "bulk mix with TCP timestamps through three flow tables, the sketch tier and string-keyed DB.Write on the polling goroutine",
		mix: gen.Config{FlowRate: 2000, DataSegments: 40, UDPRate: 8000,
			MidstreamRate: 100, IPv6Fraction: 0.15, EmitTCPTimestamps: true},
		lapSeconds: 2, probeSpeed: 1,
		trackers: true,
	},
	{
		name: "live",
		why:  "the paper's deployment: open loop at 6000 flows/s over an hour of history with one viewer on /ws, for tap-to-drawn latency",
		mix:  liveMix,
		open: true, persist: true, history: 180_000,
	},
	{
		name: "dashboard",
		why:  "reads beside writes: the live ingest plus the dashboard query on a schedule, after a checkpoint load and WAL replay in set-up",
		mix:  liveMix,
		open: true, persist: true, history: 180_000, restart: true, queries: true,
	},
}

// liveMix is the daemon's own generator configuration (cmd/ruru main.go) at
// -rate 6000.
var liveMix = gen.Config{FlowRate: 6000, DataSegments: 2, UDPRate: 3000,
	MidstreamRate: 300, SYNLoss: 0.01, SYNACKLoss: 0.01, IPv6Fraction: 0.15}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// newWorld is the daemon's world for the seed.
func newWorld(seed int64) (*geo.World, error) {
	return geo.NewWorld(geo.WorldOptions{Seed: seed, MislabelFraction: 0.02})
}

// pipelineConfig is the cmd/ruru flag defaults plus the workload's
// deviations. dir is the durable directory, used when the workload persists.
func (w *workload) pipelineConfig(world *geo.World, dir string) ruru.Config {
	c := ruru.Config{
		GeoDB:           world.DB(),
		Queues:          4,
		Burst:           burst,
		SinkWorkers:     4,
		SinkBatch:       64,
		DBStripes:       8,
		Rollups:         tsdb.DefaultRollups(),
		QueryCacheBytes: 16 << 20,
		Overflow:        nic.Block,
	}
	if w.open {
		c.Overflow = nic.Drop
	}
	if w.persist {
		c.Persist = tsdb.PersistOptions{Dir: dir, Fsync: tsdb.FsyncInterval, CheckpointEvery: -1}
	}
	if w.trackers {
		c.TrackTimestamps = true
		c.TrackSeq = true
		c.FlowTableBytes = flowTableCap
	}
	return c
}

// historyBase is where traffic timestamps start on the data clock: right
// after the preloaded history, or after an hour when there is none, so that
// the dashboard query's range never starts before zero.
func (w *workload) historyBase(scale float64) int64 {
	pts := w.historyPoints(scale)
	if pts == 0 {
		pts = int(3600 * historyRate * scale)
	}
	return int64(pts) * (1e9 / historyRate)
}

// historyPoints is the preload size at the given scale, restart tail
// included.
func (w *workload) historyPoints(scale float64) int {
	if w.history == 0 {
		return 0
	}
	n := w.history
	if w.restart {
		n += restartTail
	}
	return int(float64(n) * scale)
}
