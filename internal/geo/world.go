package geo

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// World is the deterministic synthetic internet the tests run against.
// It stands in for the production traffic mix on REANNZ's Auckland–Los
// Angeles link: a set of cities with real coordinates, each owning IPv4 and
// IPv6 address space announced by a handful of ASes. Because addresses are
// derived from the city index arithmetically, ground truth for any generated
// address is known exactly — which is what lets TestWorldMislabeling
// measure database accuracy against the paper's quoted 98%.
type World struct {
	Cities []City
	db     *DB
}

// City is one location in the synthetic world.
type City struct {
	Index       int
	Name        string
	CountryCode string
	Country     string
	Lat, Lon    float64
	// V4Base is the first octet of the city's 10.x.0.0-style /8 block;
	// addresses are v4Base.0.0.0/8.
	V4Base byte
	ASNs   [asnsPerCity]uint32
}

const (
	asnsPerCity = 4
	v4FirstBase = 16 // city i owns (16+i).0.0.0/8
	maxCities   = 64
)

// cityData holds the fixed city catalogue: name, ISO country code, country,
// latitude, longitude. The first two entries are the paper's deployment
// endpoints (Auckland and Los Angeles).
var cityData = []struct {
	name, cc, country string
	lat, lon          float64
}{
	{"Auckland", "NZ", "New Zealand", -36.85, 174.76},
	{"Los Angeles", "US", "United States", 34.05, -118.24},
	{"Wellington", "NZ", "New Zealand", -41.29, 174.78},
	{"Christchurch", "NZ", "New Zealand", -43.53, 172.64},
	{"Sydney", "AU", "Australia", -33.87, 151.21},
	{"Melbourne", "AU", "Australia", -37.81, 144.96},
	{"Brisbane", "AU", "Australia", -27.47, 153.03},
	{"San Francisco", "US", "United States", 37.77, -122.42},
	{"Seattle", "US", "United States", 47.61, -122.33},
	{"New York", "US", "United States", 40.71, -74.01},
	{"Chicago", "US", "United States", 41.88, -87.63},
	{"Dallas", "US", "United States", 32.78, -96.80},
	{"Tokyo", "JP", "Japan", 35.68, 139.69},
	{"Osaka", "JP", "Japan", 34.69, 135.50},
	{"Singapore", "SG", "Singapore", 1.35, 103.82},
	{"Hong Kong", "HK", "Hong Kong", 22.32, 114.17},
	{"Seoul", "KR", "South Korea", 37.57, 126.98},
	{"Taipei", "TW", "Taiwan", 25.03, 121.57},
	{"Mumbai", "IN", "India", 19.08, 72.88},
	{"Chennai", "IN", "India", 13.08, 80.27},
	{"London", "GB", "United Kingdom", 51.51, -0.13},
	{"Manchester", "GB", "United Kingdom", 53.48, -2.24},
	{"Frankfurt", "DE", "Germany", 50.11, 8.68},
	{"Berlin", "DE", "Germany", 52.52, 13.41},
	{"Amsterdam", "NL", "Netherlands", 52.37, 4.90},
	{"Paris", "FR", "France", 48.86, 2.35},
	{"Madrid", "ES", "Spain", 40.42, -3.70},
	{"Milan", "IT", "Italy", 45.46, 9.19},
	{"Stockholm", "SE", "Sweden", 59.33, 18.07},
	{"Warsaw", "PL", "Poland", 52.23, 21.01},
	{"São Paulo", "BR", "Brazil", -23.55, -46.63},
	{"Buenos Aires", "AR", "Argentina", -34.60, -58.38},
	{"Santiago", "CL", "Chile", -33.45, -70.67},
	{"Mexico City", "MX", "Mexico", 19.43, -99.13},
	{"Toronto", "CA", "Canada", 43.65, -79.38},
	{"Vancouver", "CA", "Canada", 49.28, -123.12},
	{"Johannesburg", "ZA", "South Africa", -26.20, 28.05},
	{"Cape Town", "ZA", "South Africa", -33.92, 18.42},
	{"Nairobi", "KE", "Kenya", -1.29, 36.82},
	{"Cairo", "EG", "Egypt", 30.04, 31.24},
	{"Dubai", "AE", "United Arab Emirates", 25.20, 55.27},
	{"Tel Aviv", "IL", "Israel", 32.09, 34.78},
	{"Istanbul", "TR", "Turkey", 41.01, 28.98},
	{"Moscow", "RU", "Russia", 55.76, 37.62},
	{"Helsinki", "FI", "Finland", 60.17, 24.94},
	{"Oslo", "NO", "Norway", 59.91, 10.75},
	{"Dublin", "IE", "Ireland", 53.35, -6.26},
	{"Lisbon", "PT", "Portugal", 38.72, -9.14},
}

// WorldOptions configures NewWorld.
type WorldOptions struct {
	// Cities limits the catalogue to the first N cities (0 = all).
	Cities int
	// MislabelFraction is the fraction of database ranges whose record is
	// deliberately swapped to a different city, emulating the real-world
	// inaccuracy of commercial geo databases (IP2Location quotes ~98%
	// country accuracy, i.e. ~2% mislabels). Ground truth (CityOf) is
	// unaffected; only the queryable DB lies.
	MislabelFraction float64
	// Seed drives the deterministic mislabeling permutation.
	Seed int64
}

// NewWorld builds the synthetic world and its geo database.
func NewWorld(opts WorldOptions) (*World, error) {
	n := opts.Cities
	if n <= 0 || n > len(cityData) {
		n = len(cityData)
	}
	if n > maxCities {
		n = maxCities
	}
	w := &World{Cities: make([]City, n)}
	for i := 0; i < n; i++ {
		cd := cityData[i]
		c := City{
			Index:       i,
			Name:        cd.name,
			CountryCode: cd.cc,
			Country:     cd.country,
			Lat:         cd.lat,
			Lon:         cd.lon,
			V4Base:      byte(v4FirstBase + i),
		}
		for j := 0; j < asnsPerCity; j++ {
			c.ASNs[j] = uint32(64000 + i*asnsPerCity + j)
		}
		w.Cities[i] = c
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	b := NewBuilder()
	for i := range w.Cities {
		c := &w.Cities[i]
		// Four /10s per city, one per ASN. A mislabeled range reports a
		// different city's record while still covering this city's space.
		for j := 0; j < asnsPerCity; j++ {
			recCity := c
			if opts.MislabelFraction > 0 && rng.Float64() < opts.MislabelFraction {
				other := rng.Intn(len(w.Cities))
				recCity = &w.Cities[other]
			}
			rec := Record{
				CountryCode: recCity.CountryCode,
				Country:     recCity.Country,
				City:        recCity.Name,
				Lat:         recCity.Lat,
				Lon:         recCity.Lon,
				ASN:         c.ASNs[j],
				ASName:      fmt.Sprintf("AS-%s-%d", recCity.Name, j),
			}
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{c.V4Base, byte(j << 6), 0, 0}), 10)
			if err := b.AddPrefix(p, rec); err != nil {
				return nil, err
			}
			// v6: 2001:db8:<city>:<asn-slot>::/64-ish — use a /50 within
			// the city's /48 so four slots fit.
			v6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i), byte(j << 6)})
			if err := b.AddPrefix(netip.PrefixFrom(v6, 50), rec); err != nil {
				return nil, err
			}
		}
	}
	db, err := b.Build()
	if err != nil {
		return nil, err
	}
	w.db = db
	return w, nil
}

// DB returns the queryable geo database (which may contain deliberate
// mislabels per WorldOptions).
func (w *World) DB() *DB { return w.db }

// Addr returns the host-th IPv4 address inside city's ASN slot.
// Host is folded into the 22 host bits of the /10.
func (w *World) Addr(city, asnSlot int, host uint32) netip.Addr {
	c := &w.Cities[city%len(w.Cities)]
	slot := asnSlot % asnsPerCity
	host %= 1 << 22
	return netip.AddrFrom4([4]byte{
		c.V4Base,
		byte(slot<<6) | byte(host>>16&0x3f),
		byte(host >> 8),
		byte(host),
	})
}

// Addr6 returns an IPv6 address inside city's ASN slot.
func (w *World) Addr6(city, asnSlot int, host uint64) netip.Addr {
	c := &w.Cities[city%len(w.Cities)]
	slot := asnSlot % asnsPerCity
	var a [16]byte
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
	a[4] = byte(c.Index)
	a[5] = byte(slot << 6)
	for i := 0; i < 8; i++ {
		a[15-i] = byte(host >> (8 * i))
	}
	return netip.AddrFrom16(a)
}

// CityOf returns the ground-truth city for an address generated by Addr or
// Addr6, and ok=false for foreign addresses.
func (w *World) CityOf(addr netip.Addr) (*City, bool) {
	if addr.Is4() || addr.Is4In6() {
		b := addr.Unmap().As4()
		idx := int(b[0]) - v4FirstBase
		if idx < 0 || idx >= len(w.Cities) {
			return nil, false
		}
		return &w.Cities[idx], true
	}
	b := addr.As16()
	if b[0] != 0x20 || b[1] != 0x01 || b[2] != 0x0d || b[3] != 0xb8 {
		return nil, false
	}
	idx := int(b[4])
	if idx >= len(w.Cities) {
		return nil, false
	}
	return &w.Cities[idx], true
}

// ASNOf returns the ground-truth ASN for a generated address.
func (w *World) ASNOf(addr netip.Addr) (uint32, bool) {
	c, ok := w.CityOf(addr)
	if !ok {
		return 0, false
	}
	var slot int
	if addr.Is4() || addr.Is4In6() {
		b := addr.Unmap().As4()
		slot = int(b[1] >> 6)
	} else {
		b := addr.As16()
		slot = int(b[5] >> 6)
	}
	return c.ASNs[slot], true
}

// Distance returns the great-circle distance in km between two cities.
func (w *World) Distance(a, b int) float64 {
	ca, cb := &w.Cities[a%len(w.Cities)], &w.Cities[b%len(w.Cities)]
	return Haversine(ca.Lat, ca.Lon, cb.Lat, cb.Lon)
}
