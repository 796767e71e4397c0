package gen

import (
	"ruru/internal/core"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

// Replay drives a generated packet stream through per-queue handshake
// tables synchronously — single goroutine, virtual time, fully
// deterministic. It models the paper's multi-queue architecture (RSS hash →
// queue → per-queue table) without wall-clock scheduling noise, which is
// what the correctness and detection tests need. It hashes as the engine
// does: the RSS hash picks the queue, and each queue's table is indexed by
// core.FlowHash under a per-queue seed. The seeds are fixed, so the tables'
// slot order, and with it the order of OnExpire calls, repeats run to run.
type Replay struct {
	// Queues is the number of simulated RSS queues (default 4).
	Queues int
	// Hasher classifies packets to queues (default symmetric RSS).
	Hasher *rss.Hasher
	// Table configures each queue's handshake table.
	Table core.TableConfig
	// OnMeasure receives each completed measurement.
	OnMeasure func(*core.Measurement)
}

// ReplayStats summarizes a replay run.
type ReplayStats struct {
	Packets int             // packets generated, TCP or not
	Tables  core.TableStats // summed over every queue's table
}

// Run consumes the generator's whole stream. The final SweepAll uses the
// last timestamp plus the table timeout so end-of-trace incompletes expire.
func (r *Replay) Run(g *Generator) ReplayStats {
	queues := r.Queues
	if queues <= 0 {
		queues = 4
	}
	h := r.Hasher
	if h == nil {
		h = rss.NewSymmetric()
	}
	tables := make([]*core.HandshakeTable, queues)
	seeds := make([]uint64, queues)
	for q := range tables {
		tc := r.Table
		tc.Queue = q
		tables[q] = core.NewHandshakeTable(tc)
		seeds[q] = uint64(q+1) * 0x9e3779b97f4a7c15
	}

	var (
		parser pkt.Parser
		p      Packet
		sum    pkt.Summary
		m      core.Measurement
		st     ReplayStats
		lastTS int64
	)
	for g.Next(&p) {
		st.Packets++
		lastTS = p.TS
		if err := parser.Parse(p.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		q := rss.Queue(h.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort), queues)
		if tables[q].Process(&sum, p.TS, uint32(core.FlowHash(seeds[q], &sum)), &m) && r.OnMeasure != nil {
			r.OnMeasure(&m)
		}
	}
	timeout := r.Table.Timeout
	if timeout <= 0 {
		timeout = 10e9
	}
	for _, t := range tables {
		t.SweepAll(lastTS + 2*timeout)
	}
	for _, t := range tables {
		st.Tables.Add(t.Stats())
	}
	return st
}
