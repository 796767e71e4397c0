package ruru

// The parent-pinned engine counters: the ts_seq_mixed golden capture
// replayed with both continuous-RTT trackers and a generous sketch-tier
// cap, after which the Engine, TSRTT, Seq and Sketch blocks of Stats() are
// compared with testdata/parent_stats.json. That file was written by the
// code from before the engine summed its four per-queue counter blocks in
// one pass (RURU_UPDATE_PARENT_DIGEST=1 on a checkout of that commit, with
// this file copied there — see docs/TESTING.md); do not regenerate it with
// the code under test.
//
// Three fields follow the sketch tier's per-run random hash seed rather
// than the capture: Sketch.Promoted and Sketch.Demoted (a count-min
// overestimate can make a flow look like an elephant) and
// Sketch.CollisionDepth (distinct keys are counted by the sketch's own
// collisions). They are compared by key only.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pcap"
)

// seededStatsFields are the parent_stats.json fields compared by key only.
var seededStatsFields = map[string]bool{
	"Sketch.Promoted": true, "Sketch.Demoted": true, "Sketch.CollisionDepth": true,
}

func parentStatsPath() string { return filepath.Join("testdata", "parent_stats.json") }

func TestStatsMatchParent(t *testing.T) {
	var oracle goldenOracle
	oj, err := os.ReadFile(goldenPath("ts_seq_mixed", ".oracle.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(oj, &oracle); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		GeoDB:  goldenWorld(t).DB(),
		Queues: 2, Overflow: nic.Block, SinkWorkers: 2,
		TrackTimestamps: true, TrackSeq: true,
		FlowTableBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	f, err := os.Open(goldenPath("ts_seq_mixed", ".pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nic.Drive(ctx, p.Port, 16, false, r.Source()); err != nil {
		t.Fatal(err)
	}
	// Quiesce: every TCP packet has reached the tables, then the queue
	// workers exit, publishing their final counters on the way out.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Engine.Packets != oracle.TCPPackets {
		if time.Now().After(deadline) {
			t.Fatalf("engine saw %d TCP packets, want %d", p.Stats().Engine.Packets, oracle.TCPPackets)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done

	st := p.Stats()
	got, err := json.MarshalIndent(map[string]any{
		"Engine": st.Engine, "TSRTT": st.TSRTT, "Seq": st.Seq, "Sketch": st.Sketch,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("RURU_UPDATE_PARENT_DIGEST") != "" {
		if err := os.WriteFile(parentStatsPath(), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s:\n%s", parentStatsPath(), got)
		return
	}
	want, err := os.ReadFile(parentStatsPath())
	if err != nil {
		t.Fatalf("parent stats missing (written on the parent commit with RURU_UPDATE_PARENT_DIGEST=1): %v", err)
	}
	var gotBlocks, wantBlocks map[string]map[string]any
	if err := json.Unmarshal(got, &gotBlocks); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantBlocks); err != nil {
		t.Fatal(err)
	}
	if len(gotBlocks) != len(wantBlocks) {
		t.Fatalf("blocks: got %d, want %d\n got:\n%s want:\n%s", len(gotBlocks), len(wantBlocks), got, want)
	}
	for block, wantFields := range wantBlocks {
		gotFields, ok := gotBlocks[block]
		if !ok || len(gotFields) != len(wantFields) {
			t.Errorf("block %s: got %v, want %v", block, gotFields, wantFields)
			continue
		}
		for field, w := range wantFields {
			g, ok := gotFields[field]
			if !ok {
				t.Errorf("%s.%s missing", block, field)
			} else if !seededStatsFields[block+"."+field] && !reflect.DeepEqual(g, w) {
				t.Errorf("%s.%s = %v, want %v", block, field, g, w)
			}
		}
	}
}
