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
// what the correctness and detection tests need.
type Replay struct {
	// Queues is the number of simulated RSS queues (default 4).
	Queues int
	// Hasher classifies packets to queues (default symmetric RSS).
	Hasher *rss.Hasher
	// TableHasher computes the hash handed to the handshake tables.
	// Defaults to Hasher — the paper's design, where the NIC's RSS hash
	// is reused as the flow-table index. Setting it independently
	// separates the two failure modes of an asymmetric key (broken table
	// lookups vs broken queue co-location).
	TableHasher *rss.Hasher
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
		t.SweepAll(lastTS + 2*timeout)
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
		st.Tables.Occupancy += s.Occupancy
	}
	return st
}
