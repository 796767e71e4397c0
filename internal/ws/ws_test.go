package ws

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func startEchoServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
}

func TestHandshakeAndEcho(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, msg := range []string{"hello", "", "multi word message"} {
		if err := c.WriteMessage(OpText, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(got) != msg {
			t.Fatalf("echo = %v %q, want %q", op, got, msg)
		}
	}
}

func TestBinaryAndLargeMessages(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Cover all three length encodings: <126, 16-bit, 64-bit.
	for _, size := range []int{0, 125, 126, 65535, 65536, 200_000} {
		msg := bytes.Repeat([]byte{0xab}, size)
		if err := c.WriteMessage(OpBinary, msg); err != nil {
			t.Fatal(err)
		}
		op, got, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if op != OpBinary || !bytes.Equal(got, msg) {
			t.Fatalf("size %d corrupted (got %d bytes)", size, len(got))
		}
	}
}

func TestEchoProperty(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := func(msg []byte) bool {
		if len(msg) > 10000 {
			msg = msg[:10000]
		}
		if err := c.WriteMessage(OpBinary, msg); err != nil {
			return false
		}
		_, got, err := c.ReadMessage()
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPingPong(t *testing.T) {
	url := startEchoServer(t)
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Ping; server must answer with pong which ReadMessage consumes
	// transparently — follow with an echo to prove the stream advanced.
	if err := c.Ping([]byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, got, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after-ping" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseHandshake(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		_, _, err = conn.ReadMessage()
		done <- err
	}))
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("server read err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not observe close")
	}
}

func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("plain GET upgraded")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestUpgradeRejectsBadVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Upgrade(w, r)
	}))
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Key", "x")
	req.Header.Set("Sec-WebSocket-Version", "8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// RFC 6455 §1.3 example.
	if got := acceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("acceptKey = %q", got)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		conn.MaxMessage = 1024
		_, _, err = conn.ReadMessage()
		if err != ErrMessageTooBig {
			t.Errorf("server err = %v, want ErrMessageTooBig", err)
		}
		conn.Close()
	}))
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteMessage(OpBinary, make([]byte, 4096))
	time.Sleep(100 * time.Millisecond)
}

func TestHubBroadcast(t *testing.T) {
	hub := NewHub(64)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"

	const nClients = 5
	conns := make([]*Conn, nClients)
	for i := range conns {
		c, err := Dial(url)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	deadline := time.Now().Add(2 * time.Second)
	for hub.LiveClients() < nClients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients registered", hub.LiveClients())
		}
		time.Sleep(5 * time.Millisecond)
	}
	const nMsgs = 20
	for i := 0; i < nMsgs; i++ {
		hub.Broadcast([]byte(fmt.Sprintf("m%d", i)))
	}
	for ci, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < nMsgs; i++ {
			_, msg, err := c.ReadMessage()
			if err != nil {
				t.Fatalf("client %d msg %d: %v", ci, i, err)
			}
			if string(msg) != fmt.Sprintf("m%d", i) {
				t.Fatalf("client %d msg %d = %q", ci, i, msg)
			}
		}
	}
	// The hub counts a message once its write returns, which can be after
	// the client has read it: wait for the count rather than read it once.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		sent, dropped := hub.Stats()
		if sent == nClients*nMsgs && dropped == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats: sent=%d dropped=%d", sent, dropped)
		}
	}
}

func TestHubSlowClientDoesNotBlockBroadcast(t *testing.T) {
	hub := NewHub(4)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for hub.LiveClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Never read from the client; broadcast far beyond its queue.
	start := time.Now()
	for i := 0; i < 10000; i++ {
		hub.Broadcast([]byte("x"))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("broadcast blocked on slow client")
	}
	if _, dropped := hub.Stats(); dropped == 0 {
		t.Fatal("no drops recorded for slow client")
	}
}

func TestHubClientDisconnectCleanup(t *testing.T) {
	hub := NewHub(16)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hub.LiveClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	deadline = time.Now().Add(2 * time.Second)
	for hub.LiveClients() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never cleaned up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentBroadcasters(t *testing.T) {
	hub := NewHub(1 << 12)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	c, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for hub.LiveClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no client")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var received atomic.Uint64
	go func() {
		for {
			if _, _, err := c.ReadMessage(); err != nil {
				return
			}
			received.Add(1)
		}
	}()
	var wg sync.WaitGroup
	const perWorker = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				hub.Broadcast([]byte("data"))
			}
		}()
	}
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for {
		sent, dropped := hub.Stats()
		if received.Load() == sent && sent+dropped == 4*perWorker {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sent=%d dropped=%d received=%d", sent, dropped, received.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func BenchmarkBroadcastFanout8(b *testing.B) {
	hub := NewHub(1 << 16)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
	for i := 0; i < 8; i++ {
		c, err := Dial(url)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		go func() {
			for {
				if _, _, err := c.ReadMessage(); err != nil {
					return
				}
			}
		}()
	}
	for hub.LiveClients() < 8 {
		time.Sleep(time.Millisecond)
	}
	msg := []byte(`{"time":1,"total_ns":145000000,"src":{"city":"Auckland"},"dst":{"city":"Los Angeles"}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Broadcast(msg)
	}
}

// TestHubRejectsUnknownStream: any non-empty stream parameter is a 400
// before any upgrade — there is one feed — so a typo or a client of the
// retired rollup stream fails loudly instead of silently joining the live
// feed.
func TestHubRejectsUnknownStream(t *testing.T) {
	hub := NewHub(64)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()

	for _, stream := range []string{"firehose", "rollup"} {
		resp, err := http.Get(srv.URL + "/?stream=" + stream)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stream=%s: status = %d, want 400", stream, resp.StatusCode)
		}
		if _, err := Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/?stream=" + stream); err == nil {
			t.Fatalf("Dial with stream=%s succeeded, want handshake failure", stream)
		}
	}
	if hub.LiveClients() != 0 {
		t.Fatalf("rejected client counted: %d", hub.LiveClients())
	}
}

// TestHubSentPlusDroppedIsBroadcast pins the hub's conservation identity
// under batched writes: k clients, one of them stalled, N broadcasts. Once
// the stalled client drains, every (client, broadcast) pair was counted
// exactly once, as sent or as dropped; each fast client read all N frames
// in order, and the stalled one an increasing subsequence of them.
func TestHubSentPlusDroppedIsBroadcast(t *testing.T) {
	const (
		k     = 4
		n     = 512
		burst = 2 * writeBatch
		size  = 64 << 10 // n frames outgrow any loopback socket buffering
	)
	hub := NewHub(burst)
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/"
	conns := make([]*Conn, k)
	for i := range conns {
		c, err := Dial(url)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(20 * time.Second))
		conns[i] = c
	}
	for deadline := time.Now().Add(2 * time.Second); hub.LiveClients() < k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients registered", hub.LiveClients())
		}
	}
	stalled, fast := conns[0], conns[1:]
	index := func(msg []byte) int {
		if len(msg) != size {
			t.Fatalf("frame of %d bytes, want %d", len(msg), size)
		}
		return int(binary.BigEndian.Uint32(msg))
	}

	// A fast client's queue never holds more than one burst, so it never
	// drops; the stalled client's writer blocks once its socket buffers
	// fill, and its queue overflows.
	for b := 0; b < n; b += burst {
		for i := b; i < b+burst; i++ {
			msg := make([]byte, size)
			binary.BigEndian.PutUint32(msg, uint32(i))
			hub.Broadcast(msg)
		}
		for ci, c := range fast {
			for i := b; i < b+burst; i++ {
				_, msg, err := c.ReadMessage()
				if err != nil {
					t.Fatalf("fast client %d, frame %d: %v", ci, i, err)
				}
				if got := index(msg); got != i {
					t.Fatalf("fast client %d read frame %d, want %d", ci, got, i)
				}
			}
		}
	}

	// Drain the stalled client until the hub has accounted for every pair
	// and the client has read everything counted as sent to it.
	var read atomic.Int64
	go func() {
		last := -1
		for {
			_, msg, err := stalled.ReadMessage()
			if err != nil {
				return
			}
			if i := index(msg); i <= last {
				t.Errorf("stalled client read frame %d after %d", i, last)
			} else {
				last = i
			}
			read.Add(1)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sent, dropped := hub.Stats()
		r := uint64(read.Load())
		if sent+dropped == n*k && sent == (k-1)*n+r {
			if r+dropped != n {
				t.Fatalf("stalled client read %d and dropped %d of %d", r, dropped, n)
			}
			if dropped == 0 {
				t.Fatal("the stalled client dropped nothing: the test did not stall it")
			}
			return
		}
		if sent+dropped > n*k || time.Now().After(deadline) {
			t.Fatalf("sent=%d dropped=%d stalled read=%d, want sent+dropped=%d", sent, dropped, r, n*k)
		}
	}
}
