package geo

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestBuilderLookup(t *testing.T) {
	b := NewBuilder()
	nz := Record{CountryCode: "NZ", Country: "New Zealand", City: "Auckland",
		Lat: -36.85, Lon: 174.76, ASN: 9500, ASName: "REANNZ"}
	us := Record{CountryCode: "US", Country: "United States", City: "Los Angeles",
		Lat: 34.05, Lon: -118.24, ASN: 2906, ASName: "Example-LA"}
	if err := b.AddPrefix(netip.MustParsePrefix("103.0.0.0/16"), nz); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPrefix(netip.MustParsePrefix("23.0.0.0/12"), us); err != nil {
		t.Fatal(err)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := db.Lookup(netip.MustParseAddr("103.0.42.1"))
	if !ok || r.City != "Auckland" || r.ASN != 9500 {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	r, ok = db.Lookup(netip.MustParseAddr("23.15.0.9"))
	if !ok || r.City != "Los Angeles" {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("lookup of uncovered address succeeded")
	}
	// Range edges are inclusive.
	if _, ok := db.Lookup(netip.MustParseAddr("103.0.255.255")); !ok {
		t.Fatal("last address of range not covered")
	}
	if _, ok := db.Lookup(netip.MustParseAddr("103.1.0.0")); ok {
		t.Fatal("address past range covered")
	}
}

func TestOverlapRejected(t *testing.T) {
	b := NewBuilder()
	r := Record{City: "X"}
	if err := b.AddPrefix(netip.MustParsePrefix("10.0.0.0/8"), r); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPrefix(netip.MustParsePrefix("10.1.0.0/16"), r); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("overlap not rejected")
	}
}

func TestBadRange(t *testing.T) {
	b := NewBuilder()
	err := b.Add(netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.1"), Record{})
	if err != ErrBadRange {
		t.Fatalf("err = %v", err)
	}
	err = b.Add(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("::1"), Record{})
	if err != ErrMixedRange {
		t.Fatalf("err = %v", err)
	}
}

func TestIPv6Lookup(t *testing.T) {
	b := NewBuilder()
	r := Record{CountryCode: "JP", City: "Tokyo", ASN: 2500}
	if err := b.AddPrefix(netip.MustParsePrefix("2001:db8:aaaa::/48"), r); err != nil {
		t.Fatal(err)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := db.Lookup(netip.MustParseAddr("2001:db8:aaaa::1234"))
	if !ok || got.City != "Tokyo" {
		t.Fatalf("v6 lookup = %+v, %v", got, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("2001:db8:bbbb::1")); ok {
		t.Fatal("uncovered v6 lookup succeeded")
	}
}

func TestV4MappedLookup(t *testing.T) {
	b := NewBuilder()
	if err := b.AddPrefix(netip.MustParsePrefix("192.0.2.0/24"), Record{City: "T"}); err != nil {
		t.Fatal(err)
	}
	db, _ := b.Build()
	if _, ok := db.Lookup(netip.MustParseAddr("::ffff:192.0.2.7")); !ok {
		t.Fatal("v4-mapped address not found in v4 table")
	}
}

func TestLastAddr(t *testing.T) {
	cases := []struct{ prefix, want string }{
		{"10.0.0.0/8", "10.255.255.255"},
		{"192.0.2.0/24", "192.0.2.255"},
		{"192.0.2.4/30", "192.0.2.7"},
		{"192.0.2.9/32", "192.0.2.9"},
		{"0.0.0.0/0", "255.255.255.255"},
		{"2001:db8::/48", "2001:db8:0:ffff:ffff:ffff:ffff:ffff"},
		{"2001:db8::7/128", "2001:db8::7"},
	}
	for _, c := range cases {
		got := lastAddr(netip.MustParsePrefix(c.prefix))
		if got != netip.MustParseAddr(c.want) {
			t.Errorf("lastAddr(%s) = %v, want %s", c.prefix, got, c.want)
		}
	}
}

func TestWorldGroundTruth(t *testing.T) {
	w, err := NewWorld(WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Cities) < 40 {
		t.Fatalf("only %d cities", len(w.Cities))
	}
	if w.Cities[0].Name != "Auckland" || w.Cities[1].Name != "Los Angeles" {
		t.Fatal("deployment endpoints missing from catalogue head")
	}
	for i := range w.Cities {
		for slot := 0; slot < asnsPerCity; slot++ {
			a := w.Addr(i, slot, uint32(i*1000+slot))
			c, ok := w.CityOf(a)
			if !ok || c.Index != i {
				t.Fatalf("CityOf(%v) = %v, %v; want city %d", a, c, ok, i)
			}
			asn, ok := w.ASNOf(a)
			if !ok || asn != w.Cities[i].ASNs[slot] {
				t.Fatalf("ASNOf(%v) = %d, want %d", a, asn, w.Cities[i].ASNs[slot])
			}
			// With no mislabeling, the DB must agree with ground truth.
			r, ok := w.DB().Lookup(a)
			if !ok || r.City != w.Cities[i].Name || r.ASN != w.Cities[i].ASNs[slot] {
				t.Fatalf("DB lookup(%v) = %+v, %v", a, r, ok)
			}
			// Same for v6.
			a6 := w.Addr6(i, slot, uint64(i))
			c6, ok := w.CityOf(a6)
			if !ok || c6.Index != i {
				t.Fatalf("CityOf(%v) = %v, %v", a6, c6, ok)
			}
			r6, ok := w.DB().Lookup(a6)
			if !ok || r6.ASN != w.Cities[i].ASNs[slot] {
				t.Fatalf("DB v6 lookup(%v) = %+v, %v", a6, r6, ok)
			}
		}
	}
	if _, ok := w.CityOf(netip.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("foreign address claimed")
	}
	if _, ok := w.CityOf(netip.MustParseAddr("2001:dead::1")); ok {
		t.Fatal("foreign v6 address claimed")
	}
}

// TestWorldMislabeling makes the database's mislabel fraction a controlled
// variable, so the accuracy the paper quotes for IP2Location ("98 %
// country-level") becomes a measured quantity: random lookups (a fifth of
// them IPv6, like the traffic mix) are scored against the world's ground
// truth. City accuracy tracks the fraction, country accuracy is never below
// it (a range relabelled within its own country still counts), and the
// database is deterministic for a fixed seed.
func TestWorldMislabeling(t *testing.T) {
	const lookups = 20000
	for _, c := range []struct {
		frac             float64
		seed             int64
		cityMin, cityMax float64
	}{
		{frac: 0, seed: 1, cityMin: 1, cityMax: 1},
		{frac: 0.1, seed: 1, cityMin: 0.8, cityMax: 0.97},
		{frac: 0.2, seed: 7, cityMin: 0.5, cityMax: 0.97},
	} {
		t.Run(fmt.Sprintf("mislabel=%.2f", c.frac), func(t *testing.T) {
			opts := WorldOptions{MislabelFraction: c.frac, Seed: c.seed}
			w1, err := NewWorld(opts)
			if err != nil {
				t.Fatal(err)
			}
			w2, _ := NewWorld(opts)
			rng := rand.New(rand.NewSource(c.seed + 1))
			countryOK, cityOK := 0, 0
			for i := 0; i < lookups; i++ {
				ci, slot := rng.Intn(len(w1.Cities)), rng.Intn(asnsPerCity)
				var a netip.Addr
				if i%5 == 0 {
					a = w1.Addr6(ci, slot, rng.Uint64())
				} else {
					a = w1.Addr(ci, slot, rng.Uint32())
				}
				r1, ok1 := w1.DB().Lookup(a)
				r2, ok2 := w2.DB().Lookup(a)
				if !ok1 || !ok2 || r1 != r2 {
					t.Fatalf("mislabel %.2f: lookup of %v not deterministic or missing", c.frac, a)
				}
				if r1.CountryCode == w1.Cities[ci].CountryCode {
					countryOK++
				}
				if r1.City == w1.Cities[ci].Name {
					cityOK++
				}
			}
			city, country := float64(cityOK)/lookups, float64(countryOK)/lookups
			t.Logf("mislabel %.2f: country accuracy %.3f, city %.3f", c.frac, country, city)
			if city < c.cityMin || city > c.cityMax {
				t.Errorf("mislabel %.2f: city accuracy %.3f, want [%.2f, %.2f]", c.frac, city, c.cityMin, c.cityMax)
			}
			if country < city {
				t.Errorf("mislabel %.2f: country accuracy %.3f < city %.3f", c.frac, country, city)
			}
		})
	}
}

func TestHaversine(t *testing.T) {
	// Auckland–Los Angeles is about 10,480 km.
	d := Haversine(-36.85, 174.76, 34.05, -118.24)
	if math.Abs(d-10480) > 150 {
		t.Fatalf("AKL-LAX distance = %v km", d)
	}
	if Haversine(0, 0, 0, 0) != 0 {
		t.Fatal("zero distance")
	}
	// Symmetry.
	if math.Abs(Haversine(10, 20, 30, 40)-Haversine(30, 40, 10, 20)) > 1e-9 {
		t.Fatal("not symmetric")
	}
}

func TestLookupNeverPanicsProperty(t *testing.T) {
	w, err := NewWorld(WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f4 := func(b [4]byte) bool {
		_, _ = w.DB().Lookup(netip.AddrFrom4(b))
		return true
	}
	f6 := func(b [16]byte) bool {
		_, _ = w.DB().Lookup(netip.AddrFrom16(b))
		return true
	}
	if err := quick.Check(f4, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(f6, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupConsistentWithGroundTruthEverywhere(t *testing.T) {
	// Property: for random host bits, DB city == ground-truth city when
	// the world is built without mislabels.
	w, err := NewWorld(WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(city uint8, slot uint8, host uint32) bool {
		i := int(city) % len(w.Cities)
		a := w.Addr(i, int(slot), host)
		r, ok := w.DB().Lookup(a)
		return ok && r.City == w.Cities[i].Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupV4(b *testing.B) {
	w, err := NewWorld(WorldOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db := w.DB()
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = w.Addr(i%len(w.Cities), i%4, uint32(i*7919))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkLookupV6(b *testing.B) {
	w, err := NewWorld(WorldOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db := w.DB()
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = w.Addr6(i%len(w.Cities), i%4, uint64(i*7919))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.Lookup(addrs[i%len(addrs)])
	}
}
