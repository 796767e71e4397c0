package tsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refBucket is a Bucket encoded the way it was before the append encoder:
// non-finite values become nil pointers in a map that encoding/json sorts,
// marshals and re-validates. It is the oracle the encoder must match byte
// for byte.
type refBucket Bucket

func (b refBucket) MarshalJSON() ([]byte, error) {
	type bucketJSON struct {
		Start int64                `json:"start"`
		Count int                  `json:"count"`
		Aggs  map[AggKind]*float64 `json:"aggs"`
	}
	out := bucketJSON{Start: b.Start, Count: b.Count}
	if b.Aggs != nil {
		out.Aggs = make(map[AggKind]*float64, len(b.Aggs))
		for k, v := range b.Aggs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out.Aggs[k] = nil
				continue
			}
			v := v
			out.Aggs[k] = &v
		}
	}
	return json.Marshal(out)
}

type refSeriesResult struct {
	Group   string      `json:"group"`
	Tier    int64       `json:"tier"`
	Buckets []refBucket `json:"buckets"`
}

func toRef(res []SeriesResult) []refSeriesResult {
	if res == nil {
		return nil
	}
	out := make([]refSeriesResult, len(res))
	for i, r := range res {
		out[i] = refSeriesResult{Group: r.Group, Tier: r.Tier}
		if r.Buckets != nil {
			out[i].Buckets = make([]refBucket, len(r.Buckets))
			for j, b := range r.Buckets {
				out[i].Buckets[j] = refBucket(b)
			}
		}
	}
	return out
}

// encodeEdgeValues are the floats where encoding/json's formatting changes:
// non-finite, signed zero, the smallest subnormal, both sides of the 1e-6
// and 1e21 exponent cutoffs, the largest finite value, and integers on both
// sides of the encoder's integer shortcut and of int64's range.
var encodeEdgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 123456789e13,
	math.MaxFloat64, -math.MaxFloat64, 1, 204, 191.2, 266, 0.1, 1.0 / 3,
	-1, 1e15 - 1, -(1e15 - 1), 1e15, 1<<53 - 1, 1 << 53, 1<<63 - 1024, -1 << 63,
}

// encodeEdgeGroups are group names that take every escaping branch.
var encodeEdgeGroups = []string{
	"", "Auckland", "São Paulo", "a<b>&c", "q\"\\\n", "tab\there\r\b\f\x01\x1f\x7f",
	"line\xe2\x80\xa8para\xe2\x80\xa9", "bad\xffutf8\xc3", "\xed\xa0\x80", "日本",
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return encodeEdgeValues[rng.Intn(len(encodeEdgeValues))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN payloads included
	case 2:
		return float64(rng.Intn(1000))
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
}

func randomGroup(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return encodeEdgeGroups[rng.Intn(len(encodeEdgeGroups))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randomBucket(rng *rand.Rand) Bucket {
	b := Bucket{Start: rng.Int63() - rng.Int63(), Count: rng.Intn(1000) - 10}
	switch rng.Intn(8) {
	case 0: // nil Aggs
	case 1:
		b.Aggs = map[AggKind]float64{}
	default:
		b.Aggs = map[AggKind]float64{}
		for _, k := range aggOrder {
			if rng.Intn(2) == 0 {
				b.Aggs[k] = randomFloat(rng)
			}
		}
		if rng.Intn(20) == 0 { // a hand-built key outside the eight kinds
			b.Aggs[AggKind(randomGroup(rng))] = randomFloat(rng)
		}
	}
	return b
}

func randomResults(rng *rand.Rand) []SeriesResult {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return []SeriesResult{}
	}
	res := make([]SeriesResult, 1+rng.Intn(4))
	for i := range res {
		res[i] = SeriesResult{Group: randomGroup(rng), Tier: rng.Int63() - rng.Int63()}
		switch rng.Intn(6) {
		case 0: // nil Buckets
		case 1:
			res[i].Buckets = []Bucket{}
		default:
			res[i].Buckets = make([]Bucket, rng.Intn(6))
			for j := range res[i].Buckets {
				res[i].Buckets[j] = randomBucket(rng)
			}
		}
	}
	return res
}

// TestEncodeMatchesEncodingJSON is the differential test of the append
// encoder: WriteResultsJSON must write exactly what json.Encoder wrote over
// the former Bucket encoding, trailing newline included, at every chunk size,
// and json.Marshal of a Bucket must be unchanged.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	buckets := 0
	for i := 0; i < 3000; i++ {
		res := randomResults(rng)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(toRef(res)); err != nil {
			t.Fatalf("case %d: reference encoder: %v", i, err)
		}
		chunk := 1 << rng.Intn(12)
		var got bytes.Buffer
		buf, err := WriteResultsJSON(&got, nil, chunk, res)
		if err != nil || len(buf) != 0 {
			t.Fatalf("case %d: err %v, %d bytes left in the buffer", i, err, len(buf))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("case %d (chunk %d):\n got  %q\n want %q", i, chunk, got.Bytes(), want.Bytes())
		}
		for _, r := range res {
			for _, b := range r.Buckets {
				buckets++
				gotB, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				wantB, _ := json.Marshal(refBucket(b))
				if !bytes.Equal(gotB, wantB) {
					t.Fatalf("json.Marshal(%+v):\n got  %s\n want %s", b, gotB, wantB)
				}
			}
		}
	}
	if buckets < 5000 {
		t.Fatalf("only %d buckets compared", buckets)
	}
}

// failAfter accepts n writes, then fails every one.
type failAfter struct {
	n, writes int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errors.New("client gone")
	}
	return len(p), nil
}

// TestWriteResultsJSONStopsAtFirstError: a failed write ends the stream.
func TestWriteResultsJSONStopsAtFirstError(t *testing.T) {
	res := []SeriesResult{{Group: "g", Buckets: make([]Bucket, 1000)}}
	w := &failAfter{n: 2}
	if _, err := WriteResultsJSON(w, nil, 64, res); err == nil {
		t.Fatal("no error returned")
	}
	if w.writes != 3 {
		t.Fatalf("%d writes, want 2 that succeeded and the one that failed", w.writes)
	}
}
