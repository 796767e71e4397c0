// Package tsdb is the embedded time-series database standing in for the
// paper's InfluxDB deployment: geo-tagged latency measurements are written
// at connection rate, retained for a configurable horizon, and queried with
// the windowed aggregations Ruru's Grafana panels use (min, max, mean,
// median, quantiles over arbitrary intervals, grouped and filtered by
// geo-location and AS tags — "InfluxDB takes care of indexing data on
// geo-location and AS information").
//
// The engine is deliberately Influx-shaped: points carry a measurement
// name, sorted key=value tags and float fields; the text ingest format is
// Influx line protocol; storage is time-sharded and series-columnar, with
// every series interned once into a copy-on-write directory that queries
// resolve lock-free (see ref.go).
//
// Storage is in-memory by default. Opened through OpenDB with
// Options.Persist set, the database is durable: every write is logged to a
// segmented write-ahead log before it is applied (fsync per
// PersistOptions.Fsync), checkpoints bound replay work and WAL growth, and
// open restores the newest checkpoint plus the WAL tail — tolerating the
// torn final record a crash leaves — rebuilding rollup tiers along the
// way. See PersistOptions, DB.Checkpoint and PersistStats for the
// contract, and wal.go/persist.go for the design.
package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Tag is one key=value dimension of a point.
type Tag struct {
	Key, Value string
}

// Field is one named float value of a point.
type Field struct {
	Key   string
	Value float64
}

// Point is a single time-series datum.
type Point struct {
	Name   string
	Tags   []Tag // will be sorted by key on write
	Fields []Field
	Time   int64 // ns
}

// Errors returned by the package.
var (
	ErrBadLine    = errors.New("tsdb: malformed line protocol")
	ErrNoFields   = errors.New("tsdb: point has no fields")
	ErrClosedDB   = errors.New("tsdb: database closed")
	ErrBadQuery   = errors.New("tsdb: malformed query")
	ErrUnknownAgg = errors.New("tsdb: unknown aggregation")
	// ErrBadResolution reports a Query.Resolution that names no configured
	// rollup tier, or one whose buckets cannot align with the requested
	// window and range, or (from DB.CheckRawStart) a raw query whose
	// start is behind the raw retention horizon.
	ErrBadResolution = errors.New("tsdb: unusable query resolution")
	// ErrBadRef reports a SeriesRef that this DB never issued, a RefPoint
	// whose Vals length does not match the ref's field set, duplicate field
	// keys in a Ref request or a written Point, or an identifier Snapshot
	// could not write back (see lineSafe).
	ErrBadRef = errors.New("tsdb: bad series ref")
	// ErrAheadOfHorizon reports (from DB.CheckWriteTime) a point time
	// further ahead of the newest stored point than the tightest
	// retention horizon.
	ErrAheadOfHorizon = errors.New("tsdb: point too far ahead of the newest point")
)

// appendSeriesKey appends the canonical series identity — name,k1=v1,k2=v2
// with sorted tag keys — to buf. The write path builds keys into pooled
// scratch with this and hashes/looks up the bytes directly, so steady-state
// writes never materialize a key string.
func appendSeriesKey(buf []byte, name string, tags []Tag) []byte {
	buf = append(buf, name...)
	for _, t := range tags {
		buf = append(buf, ',')
		buf = append(buf, t.Key...)
		buf = append(buf, '=')
		buf = append(buf, t.Value...)
	}
	return buf
}

// lineSafe reports whether Snapshot can write a series identity as a line
// Restore reads back as the same one record. MarshalLine escapes the
// separators, but a raw newline splits the record in two (and with it a
// /snapshot re-ingest), a line starting with '#' is a comment, and
// ParseLine refuses an empty name or tag key. key is the identity's series
// key (appendSeriesKey), which holds every byte of the name and the tags.
func lineSafe(name string, tags []Tag, key []byte) bool {
	if name == "" || name[0] == '#' || bytes.IndexByte(key, '\n') >= 0 {
		return false
	}
	for _, t := range tags {
		if t.Key == "" {
			return false
		}
	}
	return true
}

// lineSafeField is lineSafe for a field key.
func lineSafeField(key string) bool {
	return key != "" && strings.IndexByte(key, '\n') < 0
}

// sortTags sorts tags by key. Already-sorted input (the overwhelmingly
// common case: every write after a series' first re-presents tags the
// previous write left sorted in place) is detected and returned without
// the sort.Slice closure allocations; small unsorted tag sets use an
// in-place insertion sort.
func sortTags(tags []Tag) {
	sorted := true
	for i := 1; i < len(tags); i++ {
		if tags[i].Key < tags[i-1].Key {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(tags) <= 16 {
		for i := 1; i < len(tags); i++ {
			t := tags[i]
			j := i - 1
			for j >= 0 && tags[j].Key > t.Key {
				tags[j+1] = tags[j]
				j--
			}
			tags[j+1] = t
		}
		return
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Key < tags[j].Key })
}

// escapes for line protocol: comma, space and equals in identifiers, and the
// backslash itself — ParseLine reads a backslash as "take the next byte
// literally", so an unescaped one would swallow whatever follows it.
var lineEscaper = strings.NewReplacer(`\`, `\\`, ",", `\,`, " ", `\ `, "=", `\=`)

// MarshalLine appends the point in Influx line protocol to buf.
func MarshalLine(buf []byte, p *Point) []byte {
	buf = append(buf, lineEscaper.Replace(p.Name)...)
	for _, t := range p.Tags {
		buf = append(buf, ',')
		buf = append(buf, lineEscaper.Replace(t.Key)...)
		buf = append(buf, '=')
		buf = append(buf, lineEscaper.Replace(t.Value)...)
	}
	buf = append(buf, ' ')
	for i, f := range p.Fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, lineEscaper.Replace(f.Key)...)
		buf = append(buf, '=')
		buf = strconv.AppendFloat(buf, f.Value, 'g', -1, 64)
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, p.Time, 10)
	return buf
}

// ParseLine parses one line of Influx line protocol into p.
// Supported value types: floats, integers (with or without the trailing
// 'i'), booleans (stored as 0/1). A field key given twice is malformed: a
// point holds one value per field.
func ParseLine(line string, p *Point) error {
	p.Name = ""
	p.Tags = p.Tags[:0]
	p.Fields = p.Fields[:0]
	p.Time = 0

	// Split into measurement+tags / fields / timestamp respecting escapes.
	parts, err := splitUnescaped(line, ' ', 3)
	if err != nil || len(parts) < 2 {
		return ErrBadLine
	}
	head, err := splitUnescaped(parts[0], ',', -1)
	if err != nil || len(head) == 0 || head[0] == "" {
		return ErrBadLine
	}
	p.Name = unescape(head[0])
	for _, kv := range head[1:] {
		k, v, ok := cutUnescaped(kv, '=')
		if !ok || k == "" {
			return ErrBadLine
		}
		p.Tags = append(p.Tags, Tag{Key: unescape(k), Value: unescape(v)})
	}
	fields, err := splitUnescaped(parts[1], ',', -1)
	if err != nil || len(fields) == 0 {
		return ErrBadLine
	}
	for _, kv := range fields {
		k, v, ok := cutUnescaped(kv, '=')
		if !ok || k == "" || v == "" {
			return ErrBadLine
		}
		val, err := parseFieldValue(v)
		if err != nil {
			return ErrBadLine
		}
		key := unescape(k)
		for _, f := range p.Fields {
			if f.Key == key {
				return ErrBadLine
			}
		}
		p.Fields = append(p.Fields, Field{Key: key, Value: val})
	}
	if len(p.Fields) == 0 {
		return ErrNoFields
	}
	if len(parts) == 3 {
		ts, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return ErrBadLine
		}
		p.Time = ts
	}
	return nil
}

func parseFieldValue(s string) (float64, error) {
	switch s {
	case "t", "T", "true", "True", "TRUE":
		return 1, nil
	case "f", "F", "false", "False", "FALSE":
		return 0, nil
	}
	if strings.HasSuffix(s, "i") || strings.HasSuffix(s, "u") {
		n, err := strconv.ParseInt(strings.TrimRight(s, "iu"), 10, 64)
		return float64(n), err
	}
	if strings.HasPrefix(s, `"`) {
		return 0, fmt.Errorf("tsdb: string fields unsupported")
	}
	return strconv.ParseFloat(s, 64)
}

// splitUnescaped splits s on sep ignoring backslash-escaped separators.
// limit > 0 caps the number of pieces (like SplitN).
func splitUnescaped(s string, sep byte, limit int) ([]string, error) {
	var out []string
	start := 0
	esc := false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == sep:
			if limit > 0 && len(out) == limit-1 {
				continue
			}
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if esc {
		return nil, ErrBadLine
	}
	out = append(out, s[start:])
	return out, nil
}

// cutUnescaped splits s at the first unescaped sep.
func cutUnescaped(s string, sep byte) (before, after string, ok bool) {
	esc := false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == sep:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

func unescape(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var sb strings.Builder
	esc := false
	for i := 0; i < len(s); i++ {
		if esc {
			sb.WriteByte(s[i])
			esc = false
			continue
		}
		if s[i] == '\\' {
			esc = true
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}
