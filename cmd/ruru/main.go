// Command ruru runs the full pipeline: it taps a traffic source (the
// built-in generator or a pcap trace), measures TCP handshake latency,
// enriches with geo/AS data, stores into the embedded TSDB, and serves the
// HTTP API and WebSocket live feed — the paper's deployment in one process.
//
// Beyond the single-tap deployment, the federation addresses assemble
// fleets: -remote-write makes the process a probe that additionally streams
// every measurement to a central aggregator (acked, spooled, replayed across
// restarts), and -fed-listen makes it that aggregator, which has no local
// traffic source, accepts N probes and serves the fleet-wide store, every
// series tagged probe=<id>.
//
// Examples:
//
//	ruru -listen :8080                          # synthetic AKL↔LA traffic
//	ruru -listen :8080 -pcap trace.pcap         # replay a capture
//	ruru -listen :8080 -rate 2000 -duration 60s # heavier synthetic load
//	ruru -fed-listen :9100                      # central aggregator
//	ruru -remote-write agg:9100 -probe-id akl-tap-1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pcap"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
	"ruru/internal/web"
)

// rawHorizon is how far behind the newest point the daemon keeps raw
// points (tsdb.Options.Retention, 0 = forever), worked out from the rollup
// ladder so raw storage stops growing with uptime wherever a tier can take
// over. In memory it is the finest tier's retention: older windows are
// answered from coarser tiers, and a resolution=raw query that starts
// behind the horizon is refused. With -data-dir it is the longest tier
// retention, because tiers are not checkpointed and a restart rebuilds
// them from the raw points alone. With -rollup off, or when the tier it
// follows keeps its buckets forever, raw points are kept forever.
func rawHorizon(tiers []tsdb.RollupTier, persist bool) int64 {
	if len(tiers) == 0 {
		return 0
	}
	if persist {
		var h int64
		for _, t := range tiers {
			if t.Retention <= 0 {
				return 0
			}
			h = max(h, t.Retention)
		}
		return h
	}
	finest := tiers[0]
	for _, t := range tiers[1:] {
		if t.Width < finest.Width {
			finest = t
		}
	}
	return finest.Retention
}

// queryCacheBytes is the TSDB query result cache budget. No size measured
// better (docs/OPERATIONS.md, "Tuning"), so it is not a flag; nor are the
// sink batch and the TSDB lock stripes, left at their library defaults.
const queryCacheBytes = 16 << 20

func main() {
	opt, err := parseFlags("ruru", os.Args[1:], os.Hostname)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatalf("ruru: %v", err)
	}

	world, err := geo.NewWorld(geo.WorldOptions{Seed: opt.seed, MislabelFraction: 0.02})
	if err != nil {
		log.Fatalf("building world: %v", err)
	}
	p, err := ruru.New(ruru.Config{
		GeoDB:           world.DB(),
		Queues:          opt.queues,
		Burst:           opt.burst,
		Overflow:        opt.overflow,
		TrackTimestamps: opt.timestamps,
		TrackSeq:        opt.trackSeq,
		OneDirection:    opt.oneDir,
		FlowTableBytes:  opt.flowTableBytes,
		QueryCacheBytes: queryCacheBytes,
		SinkWorkers:     opt.sinkWk,
		Retention:       rawHorizon(opt.rollups, opt.persist.Dir != ""),
		Rollups:         opt.rollups,
		Persist:         opt.persist,
		RemoteWrite:     opt.remote,
		Federate:        opt.federate,
	})
	if err != nil {
		log.Fatalf("assembling pipeline: %v", err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			log.Printf("ruru: close: %v", err)
		}
	}()
	if opt.dataDir != "" {
		ps := p.DB.PersistStats()
		torn := ""
		if ps.ReplayTornTail {
			torn = " (torn WAL tail discarded — expected after a crash)"
		}
		log.Printf("ruru: durable storage in %s (fsync=%s): restored %d points from checkpoint, replayed %d from WAL%s",
			opt.dataDir, ps.Fsync, ps.RestoredPoints, ps.WALReplayedPoints, torn)
	}
	if p.Agg != nil {
		log.Printf("ruru: federation aggregator on %s (probes tagged %q)", p.Agg.Addr(), "probe")
	}
	if p.Remote != nil {
		log.Printf("ruru: remote-writing to %s as probe %q (spool %s)",
			opt.remote.Addr, opt.remote.ID, opt.remote.SpoolDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		p.Run(ctx)
	}()

	srv := &http.Server{Addr: opt.listen, Handler: web.NewServer(p)}
	go func() {
		log.Printf("ruru: serving API on %s (endpoints: /api/stats /api/query /api/arcs /api/anomalies /ws)", opt.listen)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()
	defer srv.Shutdown(context.Background())

	// Periodic status line.
	go func() {
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				slog.Info("ruru: status", statusAttrs(p, p.Stats())...)
			}
		}
	}()

	if opt.federate.Listen != "" {
		// An aggregator has no local traffic source: measurements arrive
		// from remote probes.
	} else if opt.pcapPath != "" {
		if err := replayPcap(ctx, opt.pcapPath, p.Port, opt.burst); err != nil {
			log.Fatalf("replay: %v", err)
		}
	} else {
		g, err := gen.New(gen.Config{
			Seed: opt.seed, World: world,
			FlowRate: opt.rate, Duration: opt.duration.Nanoseconds(),
			DataSegments: 2, UDPRate: opt.rate / 2, MidstreamRate: opt.rate / 20,
			SYNLoss: 0.01, SYNACKLoss: 0.01, IPv6Fraction: 0.15,
			EmitTCPTimestamps: opt.timestamps,
		})
		if err != nil {
			log.Fatalf("generator: %v", err)
		}
		// Pace injection to wall-clock so the live map looks live:
		// virtual nanoseconds map 1:1 onto wall nanoseconds.
		go func() {
			n, err := nic.Drive(ctx, p.Port, opt.burst, true, g.Source())
			if err == nil {
				log.Printf("ruru: generator finished (%d packets)", n)
			}
		}()
	}

	<-ctx.Done()
	// Run drains the pipeline, under its own deadline, before it returns.
	// The final stats and Close (deferred above) wait for it:
	// a probe's collector spools its final partial batch on shutdown, and
	// Close sealing the spool first would discard it (counted in
	// Remote.CloseDropped, but avoidable here).
	<-runDone
	fmt.Println()
	st := p.Stats()
	slog.Info("ruru: final stats", append(statusAttrs(p, st),
		"imissed", st.Port.Imissed, "bus_drop", st.BusDrop, "sink_drop", st.SinkDrop,
		"db_dropped", st.DBDropped, "db_write_errors", st.DBWriteErrors,
		"shutdown_drop", st.ShutdownDrop, "hub_drop", st.HubDrop)...)
}

// statusAttrs are the keys of the daemon's status record, one set per role:
// an aggregator's probes and federated intake, a probe's remote-write
// progress, a single tap's packets through to the live feed. GET /api/stats
// has everything else.
func statusAttrs(p *ruru.Pipeline, st ruru.Stats) []any {
	switch {
	case st.Fed.Enabled:
		live := 0
		for _, ps := range st.Fed.Probes {
			if ps.Connected {
				live++
			}
		}
		return []any{"probes_connected", live, "probes", len(st.Fed.Probes),
			"fed_batches", st.Fed.Batches, "fed_points", st.Fed.Points, "dups", st.Fed.DupBatches, "db", st.DBPoints}
	case st.Remote.Enabled:
		return []any{"pkts", st.Port.Ipackets, "measured", st.Engine.Completed, "db", st.DBPoints,
			"remote_acked", st.Remote.AckedSeq, "unacked", st.Remote.Unacked, "resent", st.Remote.BatchesResent,
			"dropped", st.Remote.Dropped, "connected", st.Remote.Connected}
	default:
		return []any{"pkts", st.Port.Ipackets, "measured", st.Engine.Completed, "enriched", st.Enricher.Out,
			"db", st.DBPoints, "ws_clients", p.Hub.LiveClients()}
	}
}

// parseRollups parses the -rollup flag: "off" (or "") disables rollups,
// "default" selects tsdb.DefaultRollups(), and otherwise each
// comma-separated "width[:retention]" entry is a pair of Go durations
// (retention omitted or 0 = keep that tier forever).
func parseRollups(s string) ([]tsdb.RollupTier, error) {
	switch s {
	case "", "off", "none":
		return nil, nil
	case "default":
		return tsdb.DefaultRollups(), nil
	}
	var tiers []tsdb.RollupTier
	for _, part := range strings.Split(s, ",") {
		widthStr, retStr, hasRet := strings.Cut(strings.TrimSpace(part), ":")
		width, err := time.ParseDuration(widthStr)
		if err != nil || width <= 0 {
			return nil, fmt.Errorf("tier width %q (want a positive duration like 10s)", widthStr)
		}
		var ret time.Duration
		if hasRet {
			if ret, err = time.ParseDuration(retStr); err != nil || ret < 0 {
				return nil, fmt.Errorf("tier retention %q (want a non-negative duration, 0 = forever)", retStr)
			}
		}
		tiers = append(tiers, tsdb.RollupTier{Width: width.Nanoseconds(), Retention: ret.Nanoseconds()})
	}
	return tiers, nil
}

// replayPcap paces a capture into the port on its own timestamps. On
// interrupt Drive stops the port, so a block-policy injection does not wait
// forever for room that the exited engine workers will never make.
func replayPcap(ctx context.Context, path string, port *nic.Port, burst int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	n, err := nic.Drive(ctx, port, burst, true, r.Source())
	switch {
	case errors.Is(err, context.Canceled):
		// interrupted: shut down normally
	case (errors.Is(err, pcap.ErrTruncated) || errors.Is(err, pcap.ErrBadRecordLen)) && n > 0:
		// a cut-short capture (tcpdump killed mid-write) is routine, and
		// a corrupt record ends the replay the same way: keep serving what
		// was replayed, so shutdown still drains, reports and closes
		log.Printf("ruru: capture ends after %d packets: %v", n, err)
	case err != nil:
		return err
	}
	if n == 0 && err == nil {
		return fmt.Errorf("empty capture")
	}
	log.Printf("ruru: replayed %d packets", n)
	return nil
}
