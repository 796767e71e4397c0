package mq

// Native fuzz target for the TCP transport's frame reader — the federation
// aggregator parses bytes from any host that can reach its listen port
// through FrameReader, so it must never panic and never let a length prefix
// cost more than maxFrame. Corpus regeneration: RURU_UPDATE=1 (see
// docs/TESTING.md).

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// fuzzFrameSeeds builds frame streams: a subscription hello, two data
// frames back to back, a truncated frame and hostile length prefixes.
func fuzzFrameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var stream bytes.Buffer
	for _, m := range []Message{
		{Topic: "latency."},
		{Topic: "latency.v4", Payload: []byte(`{"src":"Auckland","total_ms":145.5}`)},
		{Topic: "fed.b", Payload: bytes.Repeat([]byte{0xab}, 300)},
	} {
		if err := WriteFrame(&stream, m); err != nil {
			tb.Fatal(err)
		}
	}
	frames := stream.Bytes()
	hostile := binary.AppendUvarint(nil, maxFrame) // topic and payload both at the bound
	hostile = binary.AppendUvarint(hostile, maxFrame)
	overflow := bytes.Repeat([]byte{0xff}, 11) // a uvarint past 64 bits
	return [][]byte{frames, frames[:len(frames)-7], append(hostile, 'x'), overflow, {0, 0}}
}

// FuzzFrameReader reads frames from arbitrary bytes until the first error.
// Invariants: no panic; what the reads allocate stays under maxFrame (the
// most one frame may cost) plus a few times the bytes actually there; and a
// message cut from the same bytes comes back equal from WriteFrame → Read.
func FuzzFrameReader(f *testing.F) {
	for _, s := range fuzzFrameSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			if _, err := fr.Read(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxFrame+4*len(data)+64<<10); got > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, bound)
		}

		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % (len(data) + 1)
		}
		msg := Message{Topic: string(data[:cut]), Payload: data[cut:]}
		var wire bytes.Buffer
		if err := WriteFrame(&wire, msg); err != nil {
			t.Fatal(err)
		}
		got, err := NewFrameReader(&wire).Read()
		if err != nil || got.Topic != msg.Topic || !bytes.Equal(got.Payload, msg.Payload) || wire.Len() != 0 {
			t.Fatalf("round trip of %+v: got %+v, err %v, %d bytes left", msg, got, err, wire.Len())
		}
	})
}

// TestWriteMQFuzzCorpus regenerates testdata/fuzz/FuzzFrameReader.
// Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteMQFuzzCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameReader")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzFrameSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
