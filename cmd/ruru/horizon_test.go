package main

import (
	"reflect"
	"testing"
	"time"

	"ruru/internal/tsdb"
)

func noHostname() (string, error) { return "test-host", nil }

// TestRawHorizon: the daemon's raw horizon follows the parsed -rollup
// ladder: the finest tier's retention in memory, the longest one with
// -data-dir, and forever when rollups are off or the tier it follows
// keeps its buckets forever.
func TestRawHorizon(t *testing.T) {
	const h = int64(time.Hour)
	for _, c := range []struct {
		args []string
		want int64
	}{
		{nil, 2 * h},
		{[]string{"-data-dir", "d"}, 168 * h},
		{[]string{"-rollup", "off"}, 0},
		{[]string{"-rollup", "off", "-data-dir", "d"}, 0},
		{[]string{"-rollup", "10s:24h,1s:6h"}, 6 * h},
		{[]string{"-rollup", "10s:24h,1s:6h", "-data-dir", "d"}, 24 * h},
		{[]string{"-rollup", "1s,10s:24h"}, 0},
		{[]string{"-rollup", "1s:2h,10s", "-data-dir", "d"}, 0},
	} {
		o, err := parseFlags("ruru-test", c.args, noHostname)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := rawHorizon(o.rollups, o.persist.Dir != ""); got != c.want {
			t.Errorf("%v: raw horizon %v, want %v", c.args, time.Duration(got), time.Duration(c.want))
		}
	}
}

// TestRestartKeepsTierHistory: tiers are not checkpointed, so a restart
// rebuilds them from raw points. With -data-dir the daemon's raw horizon
// keeps every point a default tier still needs, and a 10 s-tier query
// over a window older than the 1 s tier's 2 h gives the same answer
// before and after a restart (checkpoint restore plus WAL replay).
func TestRestartKeepsTierHistory(t *testing.T) {
	o, err := parseFlags("ruru-test", []string{"-data-dir", t.TempDir(), "-checkpoint-every", "0"}, noHostname)
	if err != nil {
		t.Fatal(err)
	}
	opts := tsdb.Options{Rollups: o.rollups, Persist: &o.persist, Retention: rawHorizon(o.rollups, true)}
	db, err := tsdb.OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	// One point every 10 s for 5 h, checkpointed shortly before the end as
	// the daemon does every minute, so the checkpoint holds only the raw
	// points inside the horizon.
	const step, n = int64(10e9), 1800
	for i := int64(0); i < n; i++ {
		if i == 1700 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		p := tsdb.Point{Name: "latency", Fields: []tsdb.Field{{Key: "total_ms", Value: float64(i % 97)}}, Time: i * step}
		if err := db.Write(&p); err != nil {
			t.Fatal(err)
		}
	}
	q := tsdb.Query{Measurement: "latency", Field: "total_ms", Start: 0, End: int64(time.Hour),
		Window: int64(10 * time.Minute), Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean}, Resolution: 10e9}
	before, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(before[0].Buckets) != 6 || before[0].Buckets[0].Count != 60 {
		t.Fatalf("before restart: %+v, want one series of six 60-point buckets", before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = tsdb.OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	after, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("10 s tier older than 2 h changed across a restart:\n got %+v\nwant %+v", after, before)
	}
}
