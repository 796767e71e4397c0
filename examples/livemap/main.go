// livemap renders the paper's 3D-map frontend use case in a terminal: the
// full pipeline runs on synthetic traffic (with a latency anomaly on one
// route), a WebSocket client subscribes to the live feed exactly as the
// browser would, and the received measurements are drawn as great-circle
// arcs on an ASCII world map — "red lines in areas where most lines are
// green show increased latency".
//
// Run with: go run ./examples/livemap (exits non-zero when no measurement
// arrives over /ws)
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/arcs"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/ruru"
	"ruru/internal/web"
	"ruru/internal/ws"
)

func main() {
	world, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Block: the generator below is a lossless source, backpressured by
	// the pipeline instead of losing frames to a full queue.
	p, err := ruru.New(ruru.Config{GeoDB: world.DB(), Queues: 4, Overflow: nic.Block})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			log.Printf("pipeline close: %v", err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	// Serve the real HTTP API and connect a real WebSocket client to it —
	// the same path a browser frontend uses.
	srv := httptest.NewServer(web.NewServer(p))
	defer srv.Close()
	client, err := ws.Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/ws")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	for p.Hub.LiveClients() == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	// Traffic: world-wide flows, plus a degraded Auckland→Tokyo route
	// (every flow on it starts inside a permanent +3500ms window).
	g, err := gen.New(gen.Config{
		Seed: 11, World: world,
		FlowRate: 400, Duration: 5e9,
		FirewallWindows: []gen.Window{{Offset: 0, Length: 5e9, Extra: 3500e6}},
		ClientCities:    []int{0},
		ServerCities:    []int{1, 4, 12, 14, 20, 22, 30, 36},
	})
	if err != nil {
		log.Fatal(err)
	}
	go nic.Drive(ctx, p.Port, 0, false, g.Source())

	// Collect live measurements off the WebSocket for a short while.
	var collected []arcs.Arc
	deadline := time.Now().Add(5 * time.Second)
	client.SetReadDeadline(deadline)
	for time.Now().Before(deadline) && len(collected) < 1500 {
		_, msg, err := client.ReadMessage()
		if err != nil {
			break
		}
		// Each frame is a JSON array: the sink coalesces a burst of
		// measurements per broadcast.
		var batch []analytics.Enriched
		if json.Unmarshal(msg, &batch) != nil {
			continue
		}
		for _, e := range batch {
			collected = append(collected, arcs.Arc{
				From:      arcs.Point{Lat: e.Src.Lat, Lon: e.Src.Lon},
				To:        arcs.Point{Lat: e.Dst.Lat, Lon: e.Dst.Lon},
				LatencyNs: e.TotalNs,
			})
		}
	}

	if len(collected) == 0 {
		// CI runs this example as the live feed's smoke test: a real
		// client that read nothing is a failure, not an empty map.
		log.Fatal("livemap: no measurement received over /ws")
	}

	r := arcs.NewRenderer(140, 40)
	r.Scale = arcs.ColorScale{GoodNs: 100e6, BadNs: 1000e6}
	frame := r.Render(collected)
	fmt.Println(arcs.Frame(frame))
	fmt.Println(r.Legend())
	fmt.Printf("\n%d live measurements received over WebSocket; every arc above is one\n", len(collected))
	fmt.Println("measured flow (tap in Auckland). The '#' arcs are the degraded route —")
	fmt.Println("the anomaly an operator would spot as red among green on the WebGL map.")
}
