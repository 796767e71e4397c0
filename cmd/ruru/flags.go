package main

// The command-line surface, parsed and validated apart from main so the
// flag→config mapping is a testable contract (TestFlagParsing): every
// derived value — overflow policy, rollup tiers, persistence options,
// federation roles, the continuous-RTT tracker switches — is computed
// here, and main only assembles the process from the result.

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ruru/internal/fed"
	"ruru/internal/nic"
	"ruru/internal/tsdb"
)

// options is the fully-parsed, validated command line.
type options struct {
	listen    string
	pcapPath  string
	rate      float64
	duration  time.Duration
	queues    int
	seed      int64
	burst     int
	sinkWk    int
	sinkBatch int
	dbStripes int
	dataDir   string

	// flowTableBytes enables the bounded-memory sketch tier when > 0:
	// a hard byte cap across sketches, heavy-hitter summaries and every
	// exact flow-table entry (see ruru.Config.FlowTableBytes).
	flowTableBytes int64

	// queryCacheBytes is the TSDB query result cache budget; 0 disables
	// the cache (see ruru.Config.QueryCacheBytes).
	queryCacheBytes int64

	// Continuous-RTT trackers: -timestamps (TSval/TSecr echo pairing),
	// -track-seq (data→ACK sequence matching + loss classification) and
	// -one-direction (asymmetric-tap self-pairing; implies -track-seq in
	// the pipeline).
	timestamps bool
	trackSeq   bool
	oneDir     bool

	// Derived values.
	overflow nic.OverflowPolicy
	rollups  []tsdb.RollupTier
	persist  tsdb.PersistOptions

	// Federation: a non-empty remote.Addr makes this process a probe, a
	// non-empty federate.Listen an aggregator with no local traffic source.
	remote   fed.ProbeConfig
	federate fed.AggConfig
}

// parseFlags parses args into a validated options value. hostname supplies
// the -probe-id default (injected so tests need no real hostname).
func parseFlags(name string, args []string, hostname func() (string, error)) (*options, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address (API + /ws)")
		pcapPath   = fs.String("pcap", "", "replay this pcap instead of generating traffic")
		rate       = fs.Float64("rate", 500, "synthetic flows/s")
		duration   = fs.Duration("duration", 5*time.Minute, "synthetic capture length (virtual)")
		queues     = fs.Int("queues", 4, "RSS queues / measurement cores")
		seed       = fs.Int64("seed", 1, "generator seed")
		timestamps = fs.Bool("timestamps", false, "continuous RTT from TCP timestamp echoes (rtt_stream measurement)")
		trackSeq   = fs.Bool("track-seq", false, "continuous RTT from data→ACK sequence matching plus retrans/RTO/dupack loss classification (rtt_stream mode=seq, tcp_loss measurement)")
		oneDir     = fs.Bool("one-direction", false, "asymmetric-tap mode: self-paired round-trip response latencies from a single visible direction (rtt_stream mode=onedir; implies -track-seq)")
		burst      = fs.Int("burst", 64, "ingest/poll burst size (frames per ring round-trip)")
		overflow   = fs.String("overflow", "drop", "RX queue overflow policy: drop (NIC-faithful) or block (lossless source)")
		sinkWk     = fs.Int("sink-workers", 4, "sharded sink workers (measurements partitioned by city pair)")
		sinkBatch  = fs.Int("sink-batch", 64, "max measurements per sink wakeup / WebSocket broadcast frame")
		dbStripes  = fs.Int("db-stripes", 8, "TSDB lock stripes (1 = single global write lock)")
		flowBytes  = fs.String("flow-table-bytes", "", "hard byte cap on all per-flow state, enabling the bounded-memory sketch tier: elephants keep exact records, mice live sketch-only past the cap (size suffixes K/M/G/T, e.g. 64M; empty or 0 = exact-only)")
		qcBytes    = fs.String("query-cache-bytes", "16M", "TSDB query result cache budget: repeated dashboard queries are served from cached tier aggregates with incremental tail refresh, bit-exact with uncached execution (size suffixes K/M/G/T; 0 = no cache)")
		rollup     = fs.String("rollup", "default", `TSDB rollup tiers, "width[:retention],..." (e.g. "1s:2h,10s:24h,1m:168h"; retention 0 = keep forever), "default" for the 1s/10s/1m ladder, "off" to disable; raw points are kept for the finest tier's retention, the longest with -data-dir, forever with "off"`)
		dataDir    = fs.String("data-dir", "", "durable TSDB storage in this directory (WAL + checkpoints, restored on start); empty = in-memory")
		fsyncMode  = fs.String("fsync", "interval", "WAL fsync policy with -data-dir: always (durable before a write returns), interval (background fsync, default), off (OS page cache only)")
		ckptEvery  = fs.Duration("checkpoint-every", time.Minute, "automatic checkpoint + WAL-truncate period with -data-dir (0 = manual only, via POST /api/checkpoint)")
		remoteAddr = fs.String("remote-write", "", "federation probe: stream every measurement to the aggregator at this address")
		probeID    = fs.String("probe-id", "", "stable probe identity for federation (default: hostname); the aggregator tags this probe's series probe=<id>")
		spoolDir   = fs.String("spool-dir", "", "unacked-batch spool directory for -remote-write (default: <data-dir>/spool, or ./ruru-spool in-memory)")
		fedListen  = fs.String("fed-listen", "", "federation aggregator: accept probes on this address and store their measurements, with no local traffic source")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (all configuration is flags)", fs.Arg(0))
	}

	o := &options{
		listen: *listen, pcapPath: *pcapPath, rate: *rate, duration: *duration,
		queues: *queues, seed: *seed, burst: *burst,
		timestamps: *timestamps, trackSeq: *trackSeq, oneDir: *oneDir,
		sinkWk: *sinkWk, sinkBatch: *sinkBatch, dbStripes: *dbStripes,
		dataDir: *dataDir,
	}

	var err error
	if o.rollups, err = parseRollups(*rollup); err != nil {
		return nil, fmt.Errorf("bad -rollup: %v", err)
	}
	if o.flowTableBytes, err = parseBytes(*flowBytes); err != nil {
		return nil, fmt.Errorf("bad -flow-table-bytes: %v", err)
	}
	if o.queryCacheBytes, err = parseBytes(*qcBytes); err != nil {
		return nil, fmt.Errorf("bad -query-cache-bytes: %v", err)
	}

	var fsync tsdb.FsyncPolicy
	switch *fsyncMode {
	case "always":
		fsync = tsdb.FsyncAlways
	case "interval":
		fsync = tsdb.FsyncInterval
	case "off":
		fsync = tsdb.FsyncOff
	default:
		return nil, fmt.Errorf("unknown -fsync %q (want always, interval or off)", *fsyncMode)
	}
	if *dataDir != "" {
		o.persist = tsdb.PersistOptions{
			Dir: *dataDir, Fsync: fsync,
			CheckpointEvery: *ckptEvery,
		}
		if *ckptEvery == 0 {
			o.persist.CheckpointEvery = -1 // flag 0 means "manual only"
		}
	}

	switch *overflow {
	case "drop":
		o.overflow = nic.Drop
	case "block":
		o.overflow = nic.Block
	default:
		return nil, fmt.Errorf("unknown -overflow %q (want drop or block)", *overflow)
	}

	if *fedListen != "" && *remoteAddr != "" {
		return nil, fmt.Errorf("-fed-listen and -remote-write are exclusive (an aggregator has no local measurements to forward)")
	}
	o.federate.Listen = *fedListen
	if *remoteAddr != "" {
		id := *probeID
		if id == "" {
			if id, err = hostname(); err != nil || id == "" {
				return nil, fmt.Errorf("-probe-id required (hostname unavailable: %v)", err)
			}
		}
		dir := *spoolDir
		if dir == "" {
			if *dataDir != "" {
				dir = *dataDir + "/spool"
			} else {
				dir = "ruru-spool"
			}
		}
		o.remote = fed.ProbeConfig{Addr: *remoteAddr, ID: id, SpoolDir: dir}
	}
	return o, nil
}

// parseBytes parses a byte count with an optional binary size suffix:
// "65536", "64K", "64M", "1G", "1T", with B/iB spellings accepted
// ("64MB", "64MiB"). Empty means 0 (feature off).
func parseBytes(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	if u == "" {
		return 0, nil
	}
	u = strings.TrimSuffix(u, "IB")
	u = strings.TrimSuffix(u, "B")
	mult := int64(1)
	if n := len(u); n > 0 {
		switch u[n-1] {
		case 'K':
			mult = 1 << 10
		case 'M':
			mult = 1 << 20
		case 'G':
			mult = 1 << 30
		case 'T':
			mult = 1 << 40
		}
		if mult > 1 {
			u = u[:n-1]
		}
	}
	v, err := strconv.ParseInt(u, 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
