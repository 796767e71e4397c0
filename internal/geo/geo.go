// Package geo implements the geolocation and AS-number database Ruru's
// analytics stage consults for every measurement (the paper uses the
// IP2Location LITE databases, quoting 98% country-level accuracy).
//
// The database is the same shape as the commercial product: sorted,
// non-overlapping IP ranges, each mapping to a (country, city, lat/lon, ASN,
// AS name) record, queried by binary search. The database is built in
// memory with a Builder instead of loaded from the vendor download: a
// deterministic synthetic world (see world.go) provides ground truth so
// accuracy is measurable rather than quoted.
package geo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
)

// Record is the enrichment result for one IP range.
type Record struct {
	CountryCode string // ISO 3166-1 alpha-2
	Country     string
	City        string
	Lat, Lon    float64
	ASN         uint32
	ASName      string
}

// Errors returned by the package.
var (
	ErrOverlap    = errors.New("geo: overlapping ranges")
	ErrBadRange   = errors.New("geo: range start after end")
	ErrMixedRange = errors.New("geo: range endpoints of different families")
)

type v4range struct {
	start, end uint32
	rec        uint32
}

type v6range struct {
	start, end [16]byte
	rec        uint32
}

// DB is an immutable, queryable geo/AS database. Safe for concurrent use.
type DB struct {
	records []Record
	v4      []v4range
	v6      []v6range
}

// Builder accumulates ranges and produces a DB.
type Builder struct {
	records []Record
	recIdx  map[string]uint32
	v4      []v4range
	v6      []v6range
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{recIdx: make(map[string]uint32)}
}

func (b *Builder) intern(r Record) uint32 {
	key := fmt.Sprintf("%s|%s|%s|%g|%g|%d|%s", r.CountryCode, r.Country, r.City, r.Lat, r.Lon, r.ASN, r.ASName)
	if idx, ok := b.recIdx[key]; ok {
		return idx
	}
	idx := uint32(len(b.records))
	b.records = append(b.records, r)
	b.recIdx[key] = idx
	return idx
}

// Add registers the inclusive IP range [start, end] with the given record.
func (b *Builder) Add(start, end netip.Addr, r Record) error {
	s4, d4 := start.Is4() || start.Is4In6(), end.Is4() || end.Is4In6()
	if s4 != d4 {
		return ErrMixedRange
	}
	idx := b.intern(r)
	if s4 {
		s := binary.BigEndian.Uint32(addr4(start))
		e := binary.BigEndian.Uint32(addr4(end))
		if s > e {
			return ErrBadRange
		}
		b.v4 = append(b.v4, v4range{s, e, idx})
		return nil
	}
	s, e := start.As16(), end.As16()
	if bytes.Compare(s[:], e[:]) > 0 {
		return ErrBadRange
	}
	b.v6 = append(b.v6, v6range{s, e, idx})
	return nil
}

// AddPrefix registers a CIDR prefix with the given record.
func (b *Builder) AddPrefix(p netip.Prefix, r Record) error {
	first := p.Masked().Addr()
	last := lastAddr(p)
	return b.Add(first, last, r)
}

func addr4(a netip.Addr) []byte {
	v := a.Unmap().As4()
	return v[:]
}

// lastAddr returns the highest address in prefix p.
func lastAddr(p netip.Prefix) netip.Addr {
	a := p.Masked().Addr()
	if a.Is4() {
		v := a.As4()
		x := binary.BigEndian.Uint32(v[:])
		bitsLeft := 32 - p.Bits()
		switch {
		case bitsLeft >= 32:
			x = ^uint32(0)
		case bitsLeft > 0:
			x |= uint32(1)<<bitsLeft - 1
		}
		var out [4]byte
		binary.BigEndian.PutUint32(out[:], x)
		return netip.AddrFrom4(out)
	}
	v := a.As16()
	bitsLeft := 128 - p.Bits()
	for i := 15; i >= 0 && bitsLeft > 0; i-- {
		n := bitsLeft
		if n > 8 {
			n = 8
		}
		v[i] |= byte(1<<n - 1)
		bitsLeft -= n
	}
	return netip.AddrFrom16(v)
}

// Build validates (sorted, non-overlapping after sorting) and returns the DB.
func (b *Builder) Build() (*DB, error) {
	v4 := make([]v4range, len(b.v4))
	copy(v4, b.v4)
	sort.Slice(v4, func(i, j int) bool { return v4[i].start < v4[j].start })
	for i := 1; i < len(v4); i++ {
		if v4[i].start <= v4[i-1].end {
			return nil, fmt.Errorf("%w: v4 %d-%d overlaps %d-%d", ErrOverlap,
				v4[i].start, v4[i].end, v4[i-1].start, v4[i-1].end)
		}
	}
	v6 := make([]v6range, len(b.v6))
	copy(v6, b.v6)
	sort.Slice(v6, func(i, j int) bool { return bytes.Compare(v6[i].start[:], v6[j].start[:]) < 0 })
	for i := 1; i < len(v6); i++ {
		if bytes.Compare(v6[i].start[:], v6[i-1].end[:]) <= 0 {
			return nil, fmt.Errorf("%w: v6 range %d", ErrOverlap, i)
		}
	}
	records := make([]Record, len(b.records))
	copy(records, b.records)
	return &DB{records: records, v4: v4, v6: v6}, nil
}

// Lookup returns the record covering addr, or ok=false when the address is
// not in the database (the paper's pipeline counts these and moves on).
func (db *DB) Lookup(addr netip.Addr) (Record, bool) {
	if addr.Is4() || addr.Is4In6() {
		x := binary.BigEndian.Uint32(addr4(addr))
		i := sort.Search(len(db.v4), func(i int) bool { return db.v4[i].end >= x })
		if i < len(db.v4) && db.v4[i].start <= x {
			return db.records[db.v4[i].rec], true
		}
		return Record{}, false
	}
	a := addr.As16()
	i := sort.Search(len(db.v6), func(i int) bool { return bytes.Compare(db.v6[i].end[:], a[:]) >= 0 })
	if i < len(db.v6) && bytes.Compare(db.v6[i].start[:], a[:]) <= 0 {
		return db.records[db.v6[i].rec], true
	}
	return Record{}, false
}

// Haversine returns the great-circle distance in kilometers between two
// (lat, lon) points in degrees. Used by the RTT model and the arc renderer.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := rad(lat2 - lat1)
	dLon := rad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(lat1))*math.Cos(rad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}
