// Quickstart: generate 10 seconds of synthetic Auckland↔Los Angeles
// traffic, measure every TCP handshake at the tap, and print the per-flow
// internal/external/total latency split — the paper's Figure 1 in action.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"slices"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/pkt"
)

func main() {
	// 1. A synthetic world: city catalogue + geo/AS database. City 0 is
	// Auckland (the tap location), city 1 Los Angeles.
	world, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A traffic source: 50 flows/s from NZ clients to US servers for
	// 10 virtual seconds, with data segments and background noise.
	g, err := gen.New(gen.Config{
		Seed: 7, World: world,
		FlowRate: 50, Duration: 10e9,
		ClientCities: []int{0}, ServerCities: []int{1},
		DataSegments: 2, UDPRate: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The measurement engine: a handshake table fed with parsed
	// packets and indexed by a seeded flow hash, exactly what each
	// per-queue worker runs in the pipeline.
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 12})
	seed := rand.Uint64()

	var (
		parser pkt.Parser
		p      gen.Packet
		sum    pkt.Summary
		m      core.Measurement
		totals []int64
		shown  int
	)
	fmt.Println("flow                                            internal   external      total")
	for g.Next(&p) {
		if err := parser.Parse(p.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		if table.Process(&sum, p.TS, uint32(core.FlowHash(seed, &sum)), &m) {
			totals = append(totals, m.Total)
			if shown < 10 {
				fmt.Printf("%-44s %7.2fms  %7.2fms  %7.2fms\n",
					m.Flow, float64(m.Internal)/1e6, float64(m.External)/1e6, float64(m.Total)/1e6)
				shown++
			}
		}
	}
	if len(totals) == 0 {
		log.Fatal("quickstart: no flow measured")
	}
	slices.Sort(totals)
	n := len(totals)
	var total float64
	for _, v := range totals {
		total += float64(v)
	}
	median := float64(totals[(n-1)/2]+totals[n/2]) / 2
	fmt.Printf("\n%d flows measured — total RTT min %.1fms / median %.1fms / mean %.1fms / max %.1fms\n",
		n, float64(totals[0])/1e6, median/1e6, total/float64(n)/1e6, float64(totals[n-1])/1e6)
	fmt.Println("(internal = client↔tap RTT, external = tap↔server RTT; tap is in Auckland)")
}
