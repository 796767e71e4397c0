package tsdb

// encode.go — the JSON encoding of query answers.
//
// /api/query returns []SeriesResult, and the dashboard's answer is 48 groups
// × 360 buckets. Through encoding/json every bucket cost a reflection walk,
// a fresh map of pointers (NaN has no JSON form, so non-finite values had to
// become nil), a map-key sort and a re-validation of the bytes the bucket's
// marshaller returned. This file appends the same bytes directly. The output
// is byte-identical to encoding/json's with HTML escaping on (json.Marshal,
// and json.Encoder plus its trailing newline); encode_test.go pins that
// against the former encoding over randomized results.

import (
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// aggOrder lists every AggKind in byte order, the order encoding/json emits
// map keys in, so a bucket's aggregations are written by eight lookups
// instead of a map iteration and a sort. aggKeys holds each one's key
// rendered with its colon.
var (
	aggOrder = [...]AggKind{AggCount, AggMax, AggMean, AggMedian, AggMin, AggP95, AggP99, AggSum}
	aggKeys  = [len(aggOrder)]string{`"count":`, `"max":`, `"mean":`, `"median":`, `"min":`, `"p95":`, `"p99":`, `"sum":`}
)

// AppendJSON appends the bucket's JSON encoding to dst: start, count and the
// aggregations under their names in byte order, with a non-finite value (the
// NaN an empty bucket carries for value aggregations) as null.
func (b *Bucket) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, b.Start, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"aggs":`...)
	if b.Aggs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendAggs(dst, b.Aggs)
	}
	return append(dst, '}')
}

func appendAggs(dst []byte, aggs map[AggKind]float64) []byte {
	mark := len(dst)
	dst = append(dst, '{')
	found := 0
	for i, k := range aggOrder {
		if found == len(aggs) {
			break
		}
		v, ok := aggs[k]
		if !ok {
			continue
		}
		if found > 0 {
			dst = append(dst, ',')
		}
		found++
		dst = append(dst, aggKeys[i]...)
		dst = appendFloat(dst, v)
	}
	if found < len(aggs) {
		// A key outside the eight kinds: only a hand-built Bucket has one.
		return appendAggsSorted(dst[:mark], aggs)
	}
	return append(dst, '}')
}

// appendAggsSorted is appendAggs for a map holding arbitrary keys.
func appendAggsSorted(dst []byte, aggs map[AggKind]float64) []byte {
	keys := make([]AggKind, 0, len(aggs))
	for k := range aggs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, string(k))
		dst = append(dst, ':')
		dst = appendFloat(dst, aggs[k])
	}
	return append(dst, '}')
}

// appendFloat appends f as encoding/json formats a float64 — the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// in magnitude, with the exponent unpadded — and a non-finite f as null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	if i := int64(f); float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f)) {
		// An integer under 1e15 in magnitude (so exact, below 2^53) is its
		// own shortest round-trip decimal: counts skip the float formatter.
		// −0 is not; it keeps its sign.
		return strconv.AppendInt(dst, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string the way encoding/json writes one
// with HTML escaping on. Plain ASCII with nothing to escape (every group
// name a deployment produces) costs one scan and one copy. Otherwise
// control bytes take their short escapes where JSON has one, and <, >, &,
// the other control bytes, U+2028 and U+2029 take six-byte backslash-u
// escapes; each byte of invalid UTF-8 becomes the escaped U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029: // line and paragraph separators
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// WriteResultsJSON writes res to w exactly as json.NewEncoder(w).Encode(res)
// would, trailing newline included. It appends into buf and hands w the
// buffered bytes whenever they reach chunk, so buf grows to about chunk plus
// one bucket whatever the answer's size. It returns buf emptied, for reuse,
// and the first error from w; nothing is written after one.
func WriteResultsJSON(w io.Writer, buf []byte, chunk int, res []SeriesResult) ([]byte, error) {
	buf = buf[:0]
	if res == nil {
		buf = append(buf, "null\n"...)
		_, err := w.Write(buf)
		return buf[:0], err
	}
	buf = append(buf, '[')
	for i := range res {
		r := &res[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"group":`...)
		buf = appendJSONString(buf, r.Group)
		buf = append(buf, `,"tier":`...)
		buf = strconv.AppendInt(buf, r.Tier, 10)
		buf = append(buf, `,"buckets":`...)
		if r.Buckets == nil {
			buf = append(buf, "null}"...)
			continue
		}
		buf = append(buf, '[')
		for j := range r.Buckets {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = r.Buckets[j].AppendJSON(buf)
			if len(buf) >= chunk {
				if _, err := w.Write(buf); err != nil {
					return buf[:0], err
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, "]}"...)
	}
	buf = append(buf, "]\n"...)
	_, err := w.Write(buf)
	return buf[:0], err
}
