// synflood demonstrates the paper's real-time SYN-flood use case: the
// handshake engine's expired-incomplete evictions feed a rate detector,
// which flags the attack seconds after onset while normal measurement
// continues undisturbed.
//
// Run with: go run ./examples/synflood
package main

import (
	"fmt"
	"log"

	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
)

func main() {
	world, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Two minutes of normal traffic; at t=60s a 5000 SYN/s flood hits a
	// Los Angeles host from spoofed Sydney sources for 10 seconds.
	g, err := gen.New(gen.Config{
		Seed: 7, World: world,
		FlowRate: 100, Duration: 120e9,
		Floods: []gen.FloodSpec{
			{Start: 0, Duration: 120e9, Rate: 5, SrcCity: 12, DstCity: 3}, // ambient scanning
			{Start: 60e9, Duration: 10e9, Rate: 5000, SrcCity: 4, DstCity: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	flood := anomaly.NewFloodDetector(anomaly.FloodConfig{
		BucketNs: 1e9, MinCount: 100, Ratio: 8, WarmupBuckets: 5,
	})
	measured := 0
	rep := gen.Replay{
		Queues: 4,
		Table: core.TableConfig{
			Capacity: 1 << 17,
			Timeout:  3e9, // unanswered SYNs expire after 3s
			OnExpire: func(lastTS int64, awaiting bool) {
				if awaiting {
					flood.ObserveUnanswered(lastTS)
				}
			},
		},
		OnMeasure: func(m *core.Measurement) { measured++ },
	}
	st := rep.Run(g)
	flood.Flush()

	fmt.Printf("packets processed:        %d\n", st.Packets)
	fmt.Printf("handshakes measured:      %d (normal traffic keeps flowing)\n", measured)
	fmt.Printf("expired unanswered SYNs:  %d\n", st.Tables.ExpiredAwait)
	fmt.Println()
	if evs := flood.Events(); len(evs) == 0 {
		fmt.Println("no flood detected (unexpected!)")
	} else {
		for _, ev := range evs {
			fmt.Printf("ALARM %s at t=%.0fs: %s\n", ev.Kind, float64(ev.Time)/1e9, ev.Detail)
		}
		fmt.Println("\n(the attack began at t=60s; detection lag = handshake timeout + one bucket)")
	}
}
