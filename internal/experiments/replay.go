// Package experiments implements the evaluation harness: one reproducible
// experiment per claim, each checked against an oracle rather than a clock.
// Each returns a typed result and can print the table the paper-style
// report needs; cmd/ruru-bench is the CLI front end.
//
//   - E1: the handshake split (Fig. 1) — internal, external and total
//     latency exactly as the generator's ground truth says, per flow.
//   - E4: the §3 firewall anecdote — a nightly +4000 ms window the spike
//     detector catches and a 5-minute SNMP average does not.
//   - E5: §3's other detections — SYN floods and unusual connection counts
//     between two locations.
//   - E6: §2's quoted IP2Location "98 % country-level accuracy", measured
//     against a controlled mislabel fraction.
//   - E7: §2's symmetric RSS — what an asymmetric key breaks (table
//     lookups, then queue co-location) and that the symmetric one does not.
//   - E10: "latency for all individual TCP flows" past the handshake —
//     timestamp-echo RTT samples, exact against the oracle.
//   - E13: the durable store — every point back after a checkpoint and a
//     restart, tiers rebuilt, and the WAL's price against in-memory.
//   - E14: probe federation — exactly-once delivery through a full-fleet
//     disconnect and a probe crash.
//   - E15: the flow-state byte cap — held at 10 M flows with every planted
//     elephant still ranked.
//
// Throughput lives elsewhere: the benchmark/ module times the pipeline end
// to end (its `--trace 1` rows split that time by stage), internal/bench
// keeps the per-hot-path trajectory, and each package benchmarks its own
// kernels.
package experiments

import (
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

// Replay drives a generated packet stream through per-queue handshake
// tables synchronously — single goroutine, virtual time, fully
// deterministic. It models the paper's multi-queue architecture (RSS hash →
// queue → per-queue table) without wall-clock scheduling noise, which is
// what correctness and detection experiments need.
type Replay struct {
	// Queues is the number of simulated RSS queues (default 4).
	Queues int
	// Hasher classifies packets to queues (default symmetric RSS).
	Hasher *rss.Hasher
	// TableHasher computes the hash handed to the handshake tables.
	// Defaults to Hasher — the paper's design, where the NIC's RSS hash
	// is reused as the flow-table index. E7 sets this independently to
	// separate the two failure modes of an asymmetric key (broken table
	// lookups vs broken queue co-location).
	TableHasher *rss.Hasher
	// Table configures each queue's handshake table.
	Table core.TableConfig
	// OnMeasure receives each completed measurement.
	OnMeasure func(*core.Measurement)
}

// ReplayStats summarizes a replay run.
type ReplayStats struct {
	Packets   int
	TCP       int
	Tables    core.TableStats
	LastTS    int64
	BytesSeen int64
}

// Run consumes the generator's whole stream. The final SweepAll uses the
// last timestamp plus the table timeout so end-of-trace incompletes expire.
func (r *Replay) Run(g *gen.Generator) ReplayStats {
	queues := r.Queues
	if queues <= 0 {
		queues = 4
	}
	h := r.Hasher
	if h == nil {
		h = rss.NewSymmetric()
	}
	th := r.TableHasher
	if th == nil {
		th = h
	}
	tables := make([]*core.HandshakeTable, queues)
	for q := range tables {
		tc := r.Table
		tc.Queue = q
		tables[q] = core.NewHandshakeTable(tc)
	}

	var (
		parser pkt.Parser
		p      gen.Packet
		sum    pkt.Summary
		m      core.Measurement
		st     ReplayStats
	)
	for g.Next(&p) {
		st.Packets++
		st.BytesSeen += int64(len(p.Frame))
		st.LastTS = p.TS
		if err := parser.Parse(p.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		st.TCP++
		hash := h.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		q := rss.Queue(hash, queues)
		tblHash := hash
		if th != h {
			tblHash = th.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		}
		if tables[q].Process(&sum, p.TS, tblHash, &m) && r.OnMeasure != nil {
			r.OnMeasure(&m)
		}
	}
	timeout := r.Table.Timeout
	if timeout <= 0 {
		timeout = 10e9
	}
	for _, t := range tables {
		t.SweepAll(st.LastTS + 2*timeout)
	}
	for _, t := range tables {
		s := t.Stats()
		st.Tables.Packets += s.Packets
		st.Tables.SYNs += s.SYNs
		st.Tables.SYNRetrans += s.SYNRetrans
		st.Tables.SYNACKs += s.SYNACKs
		st.Tables.OrphanSYNACKs += s.OrphanSYNACKs
		st.Tables.Completed += s.Completed
		st.Tables.InvalidACKs += s.InvalidACKs
		st.Tables.MidstreamACKs += s.MidstreamACKs
		st.Tables.Aborted += s.Aborted
		st.Tables.Expired += s.Expired
		st.Tables.ExpiredAwait += s.ExpiredAwait
		st.Tables.TableFull += s.TableFull
	}
	return st
}
