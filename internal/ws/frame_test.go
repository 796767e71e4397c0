package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// wireConn is a net.Conn over fixed input that records what is written.
// Only what a server-side Conn's ReadMessage touches is implemented.
type wireConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *wireConn) Write(b []byte) (int, error) { return c.out.Write(b) }
func (c *wireConn) Close() error                { return nil }

// serverConn returns a server-side Conn reading the client bytes in, and
// the connection recording its writes.
func serverConn(in []byte, maxMessage int) (*Conn, *wireConn) {
	wc := &wireConn{}
	return &Conn{conn: wc, br: bufio.NewReader(bytes.NewReader(in)), server: true, MaxMessage: maxMessage}, wc
}

// clientFrame encodes one masked client frame.
func clientFrame(op Opcode, fin bool, payload []byte) []byte {
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	out := []byte{b0}
	switch n := len(payload); {
	case n < 126:
		out = append(out, 0x80|byte(n))
	case n <= 0xffff:
		out = binary.BigEndian.AppendUint16(append(out, 0x80|126), uint16(n))
	default:
		out = binary.BigEndian.AppendUint64(append(out, 0x80|127), uint64(n))
	}
	mask := [4]byte{0x37, 0xfa, 0x21, 0x3d}
	out = append(out, mask[:]...)
	start := len(out)
	out = append(out, payload...)
	maskBytes(mask, 0, out[start:])
	return out
}

// serverFrame is one frame a server wrote: unmasked.
type serverFrame struct {
	op      Opcode
	fin     bool
	payload []byte
}

// parseServerFrames splits what a server wrote into frames, or reports
// that it does not parse.
func parseServerFrames(b []byte) ([]serverFrame, bool) {
	var out []serverFrame
	for len(b) > 0 {
		if len(b) < 2 || b[1]&0x80 != 0 {
			return nil, false
		}
		f := serverFrame{op: Opcode(b[0] & 0x0f), fin: b[0]&0x80 != 0}
		n, hdr := int(b[1]&0x7f), 2
		switch n {
		case 126:
			if len(b) < 4 {
				return nil, false
			}
			n, hdr = int(binary.BigEndian.Uint16(b[2:])), 4
		case 127:
			if len(b) < 10 {
				return nil, false
			}
			n, hdr = int(binary.BigEndian.Uint64(b[2:])), 10
		}
		if n < 0 || len(b)-hdr < n {
			return nil, false
		}
		f.payload = b[hdr : hdr+n]
		out = append(out, f)
		b = b[hdr+n:]
	}
	return out, true
}

// TestControlFrameLimits: RFC 6455 §5.5 — a control frame carries at most
// 125 bytes and is never fragmented. A longer ping or a fragmented close is
// refused before anything is answered; a 125-byte ping is answered in kind.
func TestControlFrameLimits(t *testing.T) {
	ping125 := bytes.Repeat([]byte{'p'}, 125)
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"ping 126 bytes", clientFrame(OpPing, true, bytes.Repeat([]byte{'p'}, 126))},
		{"ping 64 KiB", clientFrame(OpPing, true, make([]byte, 1<<16))},
		{"pong 126 bytes", clientFrame(OpPong, true, make([]byte, 126))},
		{"ping without FIN", clientFrame(OpPing, false, []byte("x"))},
		{"close without FIN", clientFrame(OpClose, false, []byte{0x03, 0xe8})},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, wc := serverConn(c.in, DefaultMaxMessage)
			if _, _, err := conn.ReadMessage(); err != ErrBadFrame {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
			if wc.out.Len() != 0 {
				t.Fatalf("server wrote %d bytes in reply to a bad control frame", wc.out.Len())
			}
		})
	}

	in := append(clientFrame(OpPing, true, ping125), clientFrame(OpText, true, []byte("after"))...)
	conn, wc := serverConn(in, DefaultMaxMessage)
	op, msg, err := conn.ReadMessage()
	if err != nil || op != OpText || string(msg) != "after" {
		t.Fatalf("ReadMessage = %v %q %v, want the text after the ping", op, msg, err)
	}
	frames, ok := parseServerFrames(wc.out.Bytes())
	if !ok || len(frames) != 1 || frames[0].op != OpPong || !frames[0].fin || !bytes.Equal(frames[0].payload, ping125) {
		t.Fatalf("server wrote %q, want one pong echoing the 125-byte ping", wc.out.Bytes())
	}
}

// wsFuzzSeeds are client byte streams covering each frame shape and
// refusal ReadMessage knows.
func wsFuzzSeeds() [][]byte {
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	unmasked := clientFrame(OpText, true, []byte("hi"))
	unmasked[1] &^= 0x80
	unmasked = append(unmasked[:2], unmasked[6:]...)
	rsv := clientFrame(OpText, true, []byte("hi"))
	rsv[0] |= 0x40
	huge := []byte{0x82, 0x80 | 127, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	return [][]byte{
		clientFrame(OpText, true, []byte("hello")),
		cat(clientFrame(OpBinary, false, []byte("frag")), clientFrame(OpContinuation, false, []byte("ment")),
			clientFrame(OpContinuation, true, []byte("ed"))),
		cat(clientFrame(OpText, false, []byte("a")), clientFrame(OpPing, true, []byte("mid")),
			clientFrame(OpContinuation, true, []byte("b"))),
		cat(clientFrame(OpPing, true, bytes.Repeat([]byte{'p'}, 125)), clientFrame(OpText, true, nil)),
		clientFrame(OpPing, true, bytes.Repeat([]byte{'p'}, 126)),
		cat(clientFrame(OpPong, true, []byte("k")), clientFrame(OpBinary, true, make([]byte, 300))),
		clientFrame(OpClose, true, []byte{0x03, 0xe8}),
		clientFrame(OpClose, false, []byte{0x03, 0xe8}),
		clientFrame(OpPing, false, nil),
		clientFrame(OpContinuation, true, []byte("orphan")),
		cat(clientFrame(OpText, false, []byte("a")), clientFrame(OpText, true, []byte("b"))),
		clientFrame(Opcode(0x3), true, nil),
		clientFrame(Opcode(0xB), true, nil),
		clientFrame(OpBinary, true, make([]byte, 70000)),
		unmasked,
		rsv,
		huge,
		clientFrame(OpText, true, []byte("cut short"))[:9],
	}
}

// FuzzWSFrame drives a server-side ReadMessage over an arbitrary client
// byte stream. Invariants: no panic; no message longer than MaxMessage;
// everything written back parses as frames, and every one of them is a
// pong or a close of at most 125 bytes.
func FuzzWSFrame(f *testing.F) {
	for _, s := range wsFuzzSeeds() {
		f.Add(s)
	}
	const maxMessage = 4096
	f.Fuzz(func(t *testing.T, in []byte) {
		conn, wc := serverConn(in, maxMessage)
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				break
			}
			if len(msg) > maxMessage {
				t.Fatalf("message of %d bytes, limit %d", len(msg), maxMessage)
			}
		}
		frames, ok := parseServerFrames(wc.out.Bytes())
		if !ok {
			t.Fatalf("server wrote unparsable bytes %q", wc.out.Bytes())
		}
		for _, fr := range frames {
			if (fr.op != OpPong && fr.op != OpClose) || !fr.fin || len(fr.payload) > 125 {
				t.Fatalf("server wrote opcode %v fin %v with %d bytes", fr.op, fr.fin, len(fr.payload))
			}
		}
	})
}

// TestWriteWSFuzzCorpus regenerates testdata/fuzz/FuzzWSFrame. Run with
// RURU_UPDATE=1; skipped otherwise.
func TestWriteWSFuzzCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWSFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range wsFuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// batchPayloads covers every length encoding at its edges, each payload
// filled with its own byte so a swap or a torn boundary shows.
func batchPayloads() [][]byte {
	var out [][]byte
	for i, n := range []int{0, 125, 126, 65535, 65536} {
		out = append(out, bytes.Repeat([]byte{byte('a' + i)}, n))
	}
	return out
}

// TestWriteFramesBatchServer: one batched server write reads back as the
// same frames, unmasked, with opcode, FIN, bytes and order intact.
func TestWriteFramesBatchServer(t *testing.T) {
	payloads := batchPayloads()
	conn, wc := serverConn(nil, DefaultMaxMessage)
	if err := conn.writeFrames(OpBinary, true, payloads...); err != nil {
		t.Fatal(err)
	}
	frames, ok := parseServerFrames(wc.out.Bytes())
	if !ok || len(frames) != len(payloads) {
		t.Fatalf("parsed %d frames (ok=%v), want %d", len(frames), ok, len(payloads))
	}
	for i, f := range frames {
		if f.op != OpBinary || !f.fin || !bytes.Equal(f.payload, payloads[i]) {
			t.Fatalf("frame %d: op %v fin %v, %d bytes; want binary, FIN, %d bytes",
				i, f.op, f.fin, len(f.payload), len(payloads[i]))
		}
	}
}

// TestWriteFramesBatchClient: one batched client write — every frame
// masked with its own key — reads back through a server's ReadMessage as
// the same messages in order, and leaves the caller's payloads unmasked.
func TestWriteFramesBatchClient(t *testing.T) {
	type message struct {
		op  Opcode
		msg []byte
	}
	got := make(chan message, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		defer close(got)
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			got <- message{op, msg}
		}
	}))
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payloads := batchPayloads()
	if err := c.writeFrames(OpText, true, payloads...); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(payloads, batchPayloads(), bytes.Equal) {
		t.Fatal("writeFrames masked the caller's payloads in place")
	}
	for i, want := range payloads {
		select {
		case m, ok := <-got:
			if !ok {
				t.Fatalf("server stopped reading after %d messages", i)
			}
			if m.op != OpText || !bytes.Equal(m.msg, want) {
				t.Fatalf("message %d: op %v, %d bytes; want text, %d bytes", i, m.op, len(m.msg), len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}
