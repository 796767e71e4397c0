package main

// Table-driven contract for the command-line surface (TestQueryParamParsing
// style): accepted forms, applied defaults, derived values and rejections.
// The flag semantics asserted here are the ones documented in the README
// flag table — change one, change both.

import (
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"ruru/internal/fed"
	"ruru/internal/nic"
	"ruru/internal/tsdb"
)

func TestFlagParsing(t *testing.T) {
	hostname := func() (string, error) { return "test-host", nil }
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error; "" = success
		check   func(t *testing.T, o *options)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, o *options) {
				if o.timestamps || o.trackSeq || o.oneDir {
					t.Errorf("trackers on by default: ts=%v seq=%v onedir=%v", o.timestamps, o.trackSeq, o.oneDir)
				}
				if o.overflow != nic.Drop {
					t.Errorf("default overflow = %v, want Drop", o.overflow)
				}
				if o.listen != ":8080" || o.queues != 4 {
					t.Errorf("defaults: listen=%q queues=%d", o.listen, o.queues)
				}
				// Standalone: neither federation role without its address.
				if o.federate.Listen != "" || o.remote.Addr != "" {
					t.Errorf("federation on by default: federate=%+v remote=%+v", o.federate, o.remote)
				}
				if len(o.rollups) == 0 {
					t.Error("default rollups empty, want the 1s/10s/1m ladder")
				}
				if o.persist.Dir != "" {
					t.Errorf("persistence on without -data-dir: %+v", o.persist)
				}
			},
		},
		{
			name: "timestamps tracker",
			args: []string{"-timestamps"},
			check: func(t *testing.T, o *options) {
				if !o.timestamps || o.trackSeq || o.oneDir {
					t.Errorf("ts=%v seq=%v onedir=%v, want true/false/false", o.timestamps, o.trackSeq, o.oneDir)
				}
			},
		},
		{
			name: "seq tracker",
			args: []string{"-track-seq"},
			check: func(t *testing.T, o *options) {
				if !o.trackSeq || o.oneDir || o.timestamps {
					t.Errorf("ts=%v seq=%v onedir=%v, want false/true/false", o.timestamps, o.trackSeq, o.oneDir)
				}
			},
		},
		{
			// -one-direction alone is valid: the pipeline implies TrackSeq
			// from it, the flag layer passes it through unmodified.
			name: "one-direction implies seq downstream",
			args: []string{"-one-direction"},
			check: func(t *testing.T, o *options) {
				if !o.oneDir {
					t.Error("oneDir not set")
				}
			},
		},
		{
			name: "both trackers",
			args: []string{"-timestamps", "-track-seq"},
			check: func(t *testing.T, o *options) {
				if !o.timestamps || !o.trackSeq {
					t.Errorf("ts=%v seq=%v, want both", o.timestamps, o.trackSeq)
				}
			},
		},
		{
			name: "overflow block",
			args: []string{"-overflow", "block"},
			check: func(t *testing.T, o *options) {
				if o.overflow != nic.Block {
					t.Errorf("overflow=%v", o.overflow)
				}
			},
		},
		{
			name: "custom rollups",
			args: []string{"-rollup", "2s:1h,1m"},
			check: func(t *testing.T, o *options) {
				want := []tsdb.RollupTier{{Width: 2e9, Retention: 3600e9}, {Width: 60e9}}
				if len(o.rollups) != 2 || o.rollups[0] != want[0] || o.rollups[1] != want[1] {
					t.Errorf("rollups = %+v, want %+v", o.rollups, want)
				}
			},
		},
		{
			name: "durable storage",
			args: []string{"-data-dir", "/tmp/x", "-fsync", "always", "-checkpoint-every", "0"},
			check: func(t *testing.T, o *options) {
				if o.persist.Dir != "/tmp/x" || o.persist.Fsync != tsdb.FsyncAlways {
					t.Errorf("persist = %+v", o.persist)
				}
				if o.persist.CheckpointEvery != -1 {
					t.Errorf("checkpoint-every 0 should mean manual (-1), got %d", o.persist.CheckpointEvery)
				}
			},
		},
		{
			// -remote-write alone makes a probe that keeps its local source;
			// batch size and flush period are left to the fed defaults.
			name: "probe mode with explicit id",
			args: []string{"-remote-write", "agg:9100", "-probe-id", "akl-1"},
			check: func(t *testing.T, o *options) {
				want := fed.ProbeConfig{Addr: "agg:9100", ID: "akl-1", SpoolDir: "ruru-spool"}
				if o.remote != want {
					t.Errorf("remote = %+v, want %+v", o.remote, want)
				}
				if o.federate.Listen != "" {
					t.Errorf("a probe must keep its traffic source: federate = %+v", o.federate)
				}
			},
		},
		{
			name: "probe id defaults to hostname, spool under data-dir",
			args: []string{"-remote-write", "agg:9100", "-data-dir", "/tmp/x"},
			check: func(t *testing.T, o *options) {
				if o.remote.ID != "test-host" || o.remote.SpoolDir != "/tmp/x/spool" {
					t.Errorf("remote = %+v", o.remote)
				}
			},
		},
		{
			// -fed-listen alone is the aggregator role: no local traffic
			// source, no remote-write.
			name: "aggregate mode",
			args: []string{"-fed-listen", ":9200"},
			check: func(t *testing.T, o *options) {
				if o.federate.Listen != ":9200" {
					t.Errorf("federate = %+v", o.federate)
				}
				if o.remote.Addr != "" {
					t.Errorf("aggregator also remote-writes: %+v", o.remote)
				}
			},
		},
		{
			// -probe-id names a probe but does not make one.
			name: "probe without remote-write",
			args: []string{"-probe-id", "akl-1"},
			check: func(t *testing.T, o *options) {
				if o.remote.Addr != "" || o.federate.Listen != "" {
					t.Errorf("remote = %+v, federate = %+v; want standalone", o.remote, o.federate)
				}
			},
		},
		{
			name: "flow table cap with suffix",
			args: []string{"-flow-table-bytes", "64M"},
			check: func(t *testing.T, o *options) {
				if o.flowTableBytes != 64<<20 {
					t.Errorf("flowTableBytes = %d, want 64MiB", o.flowTableBytes)
				}
			},
		},
		{
			name: "flow table cap defaults to exact mode",
			args: nil,
			check: func(t *testing.T, o *options) {
				if o.flowTableBytes != 0 {
					t.Errorf("flowTableBytes = %d, want 0 (exact-only)", o.flowTableBytes)
				}
			},
		},
		{name: "unknown flag", args: []string{"-no-such-flag"}, wantErr: "not defined"},
		{name: "bad flow table cap", args: []string{"-flow-table-bytes", "lots"}, wantErr: "bad -flow-table-bytes"},
		{name: "bad overflow", args: []string{"-overflow", "spill"}, wantErr: "unknown -overflow"},
		{name: "bad fsync", args: []string{"-fsync", "sometimes"}, wantErr: "unknown -fsync"},
		{name: "zero queues", args: []string{"-queues", "0"}, wantErr: "bad -queues"},
		{name: "negative queues", args: []string{"-queues", "-2"}, wantErr: "bad -queues"},
		{name: "zero sink workers", args: []string{"-sink-workers", "0"}, wantErr: "bad -sink-workers"},
		{name: "negative checkpoint period", args: []string{"-data-dir", "/tmp/x", "-checkpoint-every", "-1s"}, wantErr: "bad -checkpoint-every"},
		// -mode is not a flag: the role comes from the addresses.
		{name: "bad mode", args: []string{"-mode", "aggregate"}, wantErr: "not defined"},
		{name: "bad rollup", args: []string{"-rollup", "nope"}, wantErr: "bad -rollup"},
		{name: "aggregator and probe exclusive", args: []string{"-fed-listen", ":9200", "-remote-write", "agg:9100"}, wantErr: "exclusive"},
		{name: "positional args rejected", args: []string{"trailing"}, wantErr: "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags("ruru-test", tc.args, hostname)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			tc.check(t, o)
		})
	}
}

// TestParseBytes pins the size-suffix grammar of -flow-table-bytes: plain
// integers are bytes, a trailing K/M/G/T (optionally with B or iB) is a
// binary multiplier, and anything ambiguous or overflowing is rejected.
func TestParseBytes(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"", 0}, {"0", 0}, {"123", 123},
		{"4K", 4 << 10}, {"4KB", 4 << 10}, {"4KiB", 4 << 10}, {"4kib", 4 << 10},
		{"64M", 64 << 20}, {"64MB", 64 << 20}, {"64MiB", 64 << 20},
		{"2G", 2 << 30}, {"1T", 1 << 40},
		{" 8M ", 8 << 20}, {"100B", 100},
	}
	for _, tc := range good {
		got, err := parseBytes(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"lots", "-1", "-4K", "12X", "K", "4.5M", "9999999999G", "64MiBs"} {
		if got, err := parseBytes(in); err == nil {
			t.Errorf("parseBytes(%q) = %d, want error", in, got)
		}
	}
}

// TestREADMEFlagTable: the cmd/ruru flag table in README.md lists exactly
// the flags parseFlags registers, so a deleted flag cannot stay documented
// and a new one cannot go undocumented.
func TestREADMEFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### `cmd/ruru` — the daemon\n")
	if !ok {
		t.Fatal("README.md has no \"### `cmd/ruru` — the daemon\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ = strings.Cut(name, "`")
			documented[name] = true
		}
	}

	// The flag package prints one "  -name" line per flag to os.Stderr
	// on -h.
	usage, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = usage
	_, err = parseFlags("ruru-test", []string{"-h"}, noHostname)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h) = %v, want flag.ErrHelp", err)
	}
	out, err := os.ReadFile(usage.Name())
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			registered[name] = true
		}
	}

	if len(registered) == 0 {
		t.Fatalf("no flags in the -h output:\n%s", out)
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is not in README.md's cmd/ruru flag table", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("README.md's cmd/ruru flag table lists -%s, which the daemon does not accept", name)
		}
	}
}
