package analytics

import (
	"context"
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/mq"
)

func sampleMeasurement() core.Measurement {
	return core.Measurement{
		Flow: core.FlowKey{
			Client:     netip.MustParseAddr("16.1.2.3"),
			Server:     netip.MustParseAddr("17.64.0.9"),
			ClientPort: 40001, ServerPort: 443,
		},
		Internal: 15_000_000, External: 30_000_000, Total: 45_000_000,
		SYNTime: 100, SYNACKTime: 30_000_100, ACKTime: 45_000_100,
		SYNRetrans: 1, Queue: 3,
	}
}

func TestMeasurementCodecRoundTrip(t *testing.T) {
	m := sampleMeasurement()
	buf := MarshalMeasurement(nil, &m)
	var got core.Measurement
	if err := UnmarshalMeasurement(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMeasurementCodecV6(t *testing.T) {
	m := sampleMeasurement()
	m.IPv6 = true
	m.Flow.Client = netip.MustParseAddr("2001:db8::1")
	m.Flow.Server = netip.MustParseAddr("2001:db8::2")
	buf := MarshalMeasurement(nil, &m)
	var got core.Measurement
	if err := UnmarshalMeasurement(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("v6 round trip mismatch: %+v", got)
	}
}

func TestMeasurementCodecProperty(t *testing.T) {
	f := func(c, s [4]byte, cp, sp uint16, in, ex int64, retrans uint8, q uint8) bool {
		m := core.Measurement{
			Flow: core.FlowKey{
				Client:     netip.AddrFrom4(c),
				Server:     netip.AddrFrom4(s),
				ClientPort: cp, ServerPort: sp,
			},
			Internal: in, External: ex, Total: in + ex,
			SYNRetrans: retrans, Queue: int(q),
		}
		buf := MarshalMeasurement(nil, &m)
		var got core.Measurement
		if err := UnmarshalMeasurement(buf, &got); err != nil {
			return false
		}
		return got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementCodecRejectsBadInput(t *testing.T) {
	var m core.Measurement
	if err := UnmarshalMeasurement(nil, &m); err != ErrBadMessage {
		t.Fatalf("nil: %v", err)
	}
	if err := UnmarshalMeasurement(make([]byte, 10), &m); err != ErrBadMessage {
		t.Fatalf("short: %v", err)
	}
	good := MarshalMeasurement(nil, &m)
	good[0] = 99 // bad version
	if err := UnmarshalMeasurement(good, &m); err != ErrBadMessage {
		t.Fatalf("version: %v", err)
	}
}

func TestEnrichedCodecRoundTrip(t *testing.T) {
	e := Enriched{
		Time: 123456789, InternalNs: 15e6, ExternalNs: 30e6, TotalNs: 45e6,
		IPv6: true, SYNRetrans: 2,
		Src: Endpoint{CountryCode: "NZ", Country: "New Zealand", City: "Auckland",
			Lat: -36.85, Lon: 174.76, ASN: 64000, ASName: "AS-Auckland-0"},
		Dst: Endpoint{CountryCode: "US", Country: "United States", City: "Los Angeles",
			Lat: 34.05, Lon: -118.24, ASN: 64004, ASName: "AS-LA-0"},
	}
	buf := MarshalEnriched(nil, &e)
	var got Enriched
	if err := UnmarshalEnriched(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestEnrichedCodecProperty(t *testing.T) {
	f := func(city1, city2, as1 string, lat, lon float64, t0, in, ex int64) bool {
		if len(city1) > 200 {
			city1 = city1[:200]
		}
		if len(city2) > 200 {
			city2 = city2[:200]
		}
		if len(as1) > 200 {
			as1 = as1[:200]
		}
		// Lat/lon are fixed-point µdeg on the wire; quantize inputs.
		lat = float64(int64(lat*1e6)%180_000_000) / 1e6
		lon = float64(int64(lon*1e6)%180_000_000) / 1e6
		e := Enriched{
			Time: t0, InternalNs: in, ExternalNs: ex, TotalNs: in + ex,
			Src: Endpoint{City: city1, ASName: as1, Lat: lat, Lon: lon},
			Dst: Endpoint{City: city2},
		}
		buf := MarshalEnriched(nil, &e)
		var got Enriched
		if err := UnmarshalEnriched(buf, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnrichedCodecRejectsTruncation(t *testing.T) {
	e := Enriched{Src: Endpoint{City: "Auckland"}, Dst: Endpoint{City: "LA"}}
	buf := MarshalEnriched(nil, &e)
	for cut := 0; cut < len(buf); cut++ {
		var got Enriched
		if err := UnmarshalEnriched(buf[:cut], &got); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage also rejected.
	var got Enriched
	if err := UnmarshalEnriched(append(buf, 0), &got); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestEnrichedJSONStable(t *testing.T) {
	e := Enriched{Time: 1, Src: Endpoint{CountryCode: "NZ", City: "Auckland"}}
	data, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"time", "internal_ns", "external_ns", "total_ns", "src", "dst"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON missing %q: %s", key, data)
		}
	}
	src := m["src"].(map[string]any)
	if src["cc"] != "NZ" || src["city"] != "Auckland" {
		t.Fatalf("src endpoint JSON: %v", src)
	}
}

func newWorld(t testing.TB) *geo.World {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEnricherEndToEnd(t *testing.T) {
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	enr, err := NewEnricher(Config{DB: w.DB(), Bus: bus, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := bus.Subscribe(TopicEnriched, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go enr.Run(ctx)

	sink := NewBusSink(bus)
	m := core.Measurement{
		Flow: core.FlowKey{
			Client:     w.Addr(0, 1, 99), // Auckland
			Server:     w.Addr(1, 2, 50), // Los Angeles
			ClientPort: 40000, ServerPort: 443,
		},
		Internal: 15e6, External: 130e6, Total: 145e6, ACKTime: 42,
	}
	sink.Emit(&m)

	select {
	case msg := <-out.C():
		var e Enriched
		if err := UnmarshalEnriched(msg.Payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Src.City != "Auckland" || e.Dst.City != "Los Angeles" {
			t.Fatalf("enrichment wrong: %+v", e)
		}
		if e.Src.ASN != w.Cities[0].ASNs[1] || e.Dst.ASN != w.Cities[1].ASNs[2] {
			t.Fatalf("ASNs wrong: %d, %d", e.Src.ASN, e.Dst.ASN)
		}
		if e.InternalNs != 15e6 || e.ExternalNs != 130e6 || e.Time != 42 {
			t.Fatalf("latencies wrong: %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no enriched message")
	}
	st := enr.Stats()
	if st.In != 1 || st.Out != 1 || st.LookupMisses != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEnricherUnknownAddress(t *testing.T) {
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	enr, err := NewEnricher(Config{DB: w.DB(), Bus: bus, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := bus.Subscribe(TopicEnriched, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go enr.Run(ctx)

	m := core.Measurement{
		Flow: core.FlowKey{
			Client:     netip.MustParseAddr("8.8.8.8"), // not in the world
			Server:     w.Addr(1, 0, 1),
			ClientPort: 1, ServerPort: 2,
		},
	}
	NewBusSink(bus).Emit(&m)
	select {
	case msg := <-out.C():
		var e Enriched
		if err := UnmarshalEnriched(msg.Payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Src.CountryCode != "??" || e.Src.City != "Unknown" {
			t.Fatalf("unknown endpoint not flagged: %+v", e.Src)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no message")
	}
	if enr.Stats().LookupMisses != 1 {
		t.Fatalf("stats: %+v", enr.Stats())
	}
}

func TestEnricherFilterModule(t *testing.T) {
	// The paper's extensibility claim ("one could add a filter module ...
	// based on some criteria"): a filter is one more subscriber to the
	// enriched topic, here passing on NZ sources only.
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	enr, err := NewEnricher(Config{DB: w.DB(), Bus: bus, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := bus.Subscribe(TopicEnriched, 16)
	out := make(chan Enriched, 16)
	go func() {
		for msg := range in.C() {
			var e Enriched
			if UnmarshalEnriched(msg.Payload, &e) == nil && e.Src.CountryCode == "NZ" {
				out <- e
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go enr.Run(ctx)

	sink := NewBusSink(bus)
	mNZ := core.Measurement{Flow: core.FlowKey{Client: w.Addr(0, 0, 1), Server: w.Addr(1, 0, 1)}}
	mUS := core.Measurement{Flow: core.FlowKey{Client: w.Addr(1, 0, 2), Server: w.Addr(0, 0, 2)}}
	sink.Emit(&mUS)
	sink.Emit(&mNZ)

	select {
	case e := <-out:
		if e.Src.CountryCode != "NZ" {
			t.Fatalf("filter let through %v", e.Src.CountryCode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no message")
	}
	select {
	case <-out:
		t.Fatal("filtered message delivered")
	case <-time.After(100 * time.Millisecond):
	}
	if st := enr.Stats(); st.Out != 2 {
		t.Fatalf("enricher published %d, want both measurements: %+v", st.Out, st)
	}
}

func TestEnricherValidation(t *testing.T) {
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	if _, err := NewEnricher(Config{Bus: bus}); err == nil {
		t.Fatal("nil DB accepted")
	}
	if _, err := NewEnricher(Config{DB: w.DB()}); err == nil {
		t.Fatal("nil bus accepted")
	}
}

func TestEnricherThroughputManyMeasurements(t *testing.T) {
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	enr, err := NewEnricher(Config{DB: w.DB(), Bus: bus, Workers: 4, HWM: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := bus.Subscribe(TopicEnriched, 1<<16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go enr.Run(ctx)

	sink := NewBusSink(bus)
	const n = 5000
	go func() {
		for i := 0; i < n; i++ {
			m := core.Measurement{
				Flow: core.FlowKey{
					Client:     w.Addr(i%len(w.Cities), i%4, uint32(i)),
					Server:     w.Addr((i+1)%len(w.Cities), i%4, uint32(i)),
					ClientPort: uint16(i), ServerPort: 443,
				},
				Internal: int64(i), External: int64(2 * i), Total: int64(3 * i),
			}
			sink.Emit(&m)
		}
	}()
	received := 0
	deadline := time.After(10 * time.Second)
	for received < n {
		select {
		case <-out.C():
			received++
		case <-deadline:
			t.Fatalf("received %d/%d (stats %+v)", received, n, enr.Stats())
		}
	}
}

func TestEnricherShedsLoadAtHWM(t *testing.T) {
	// ZeroMQ semantics: when the enricher cannot keep up, the raw topic
	// drops at the subscription HWM instead of stalling the publisher.
	w := newWorld(t)
	bus := mq.NewBus()
	defer bus.Close()
	enr, err := NewEnricher(Config{DB: w.DB(), Bus: bus, Workers: 1, HWM: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Do NOT run the enricher: its subscription queue fills at 8.
	sink := NewBusSink(bus)
	m := core.Measurement{Flow: core.FlowKey{
		Client: w.Addr(0, 0, 1), Server: w.Addr(1, 0, 1)}}
	start := time.Now()
	for i := 0; i < 10000; i++ {
		sink.Emit(&m)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("publisher blocked on saturated enricher")
	}
	if enr.Stats().SubDropped != 10000-8 {
		t.Fatalf("dropped = %d, want %d", enr.Stats().SubDropped, 10000-8)
	}
}

func BenchmarkEnrich(b *testing.B) {
	w := newWorld(b)
	enr := &Enricher{cfg: Config{DB: w.DB()}}
	m := core.Measurement{
		Flow: core.FlowKey{
			Client: w.Addr(0, 1, 99), Server: w.Addr(1, 2, 50),
			ClientPort: 40000, ServerPort: 443,
		},
	}
	var e Enriched
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enr.enrich(&m, &e)
	}
}

func BenchmarkMarshalEnriched(b *testing.B) {
	e := Enriched{
		Src: Endpoint{CountryCode: "NZ", Country: "New Zealand", City: "Auckland", ASName: "AS-X"},
		Dst: Endpoint{CountryCode: "US", Country: "United States", City: "Los Angeles", ASName: "AS-Y"},
	}
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = MarshalEnriched(buf, &e)
	}
}
