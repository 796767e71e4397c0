package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// pin fixes one rendered trace: a later change to internal/gen that alters
// a workload's traffic then fails the run instead of shifting its baseline.
type pin struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// DurationNs is the generator time rendered: the lap of a closed loop,
	// the loop length of an open one (half as long in a traced run).
	DurationNs int64  `json:"duration_ns"`
	Packets    int    `json:"packets"`
	Completes  uint64 `json:"completes"`
	SHA256     string `json:"sha256"`
}

//go:embed pins.json
var pinsJSON []byte

// pinnedSeeds are the seeds pins.json covers: the default, and a second one
// that a performance claim must also hold on.
var pinnedSeeds = []int64{1, 2}

// checkPin compares a rendered trace with its pin, if it has one. Other
// seeds, scales and run lengths are unpinned and pass.
func checkPin(rc *runConfig, tr *trace) error {
	var pins []pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	for _, p := range pins {
		if p.Workload != rc.wl.name || p.Seed != rc.seed || p.DurationNs != rc.traceDuration() || rc.scale != 1 {
			continue
		}
		if p.SHA256 != tr.sha || p.Packets != len(tr.pkts) || p.Completes != tr.completes {
			return fmt.Errorf("trace of %s seed %d changed: %d packets, %d completing flows, sha256 %s; pinned %d, %d, %s (internal/gen moved: re-pin with -pins and re-measure the baseline)",
				p.Workload, p.Seed, len(tr.pkts), tr.completes, tr.sha, p.Packets, p.Completes, p.SHA256)
		}
	}
	return nil
}

// writePins renders every workload for the pinned seeds, untraced and
// traced, at the default run length, and writes the pins file.
func writePins(w io.Writer) error {
	var pins []pin
	for _, seed := range pinnedSeeds {
		world, err := newWorld(seed)
		if err != nil {
			return err
		}
		for i := range workloads {
			wl := &workloads[i]
			for _, traced := range []bool{false, true} {
				rc := &runConfig{wl: wl, seed: seed, seconds: defaultSeconds, scale: 1, trace: traced}
				if traced && !wl.open {
					continue // a closed loop's lap does not depend on the run length
				}
				tr, err := renderTrace(wl.genConfig(seed, world, rc.traceDuration()))
				if err != nil {
					return err
				}
				pins = append(pins, pin{wl.name, seed, rc.traceDuration(), len(tr.pkts), tr.completes, tr.sha})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pins)
}
