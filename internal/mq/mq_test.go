package mq

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPubSubBasic(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, err := b.Subscribe("latency.", 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(Message{Topic: "latency.v4", Payload: []byte("a")})
	b.Publish(Message{Topic: "stats.port", Payload: []byte("b")}) // filtered out
	b.Publish(Message{Topic: "latency.v6", Payload: []byte("c")})

	got := []string{}
	for i := 0; i < 2; i++ {
		select {
		case m := <-sub.C():
			got = append(got, m.Topic)
		case <-time.After(time.Second):
			t.Fatal("timeout")
		}
	}
	if got[0] != "latency.v4" || got[1] != "latency.v6" {
		t.Fatalf("got %v", got)
	}
	select {
	case m := <-sub.C():
		t.Fatalf("unexpected message %v", m.Topic)
	default:
	}
}

func TestEmptyPrefixMatchesAll(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 4)
	b.Publish(Message{Topic: "x"})
	b.Publish(Message{Topic: "y"})
	if len(sub.ch) != 2 {
		t.Fatalf("queued %d", len(sub.ch))
	}
}

// TestHWMDropsInsteadOfBlocking also pins the bus ledger per subscription:
// each one's delivered + dropped equals the publishes its prefix matches,
// and the bus's dropped is the sum of the subscriptions' drops.
func TestHWMDropsInsteadOfBlocking(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 2)
	other, _ := b.Subscribe("u", 2) // matches none of the topics
	drained, _ := b.Subscribe("t", 2)
	delivered := make(chan uint64)
	go func() {
		var n uint64
		for range drained.C() {
			n++
		}
		delivered <- n
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Message{Topic: "t", Payload: []byte{byte(i)}})
		}
	}()
	select {
	case <-done: // must not block even though nobody drains
	case <-time.After(2 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if sub.Dropped() != 98 {
		t.Fatalf("dropped = %d, want 98", sub.Dropped())
	}
	pub, dropped := b.Stats()
	if pub != 100 || dropped != 98+drained.Dropped() {
		t.Fatalf("bus stats = %d published, %d dropped; want 100, %d", pub, dropped, 98+drained.Dropped())
	}
	held := uint64(len(sub.C()))
	b.Close() // ends the drainer
	ledger := []struct {
		name                         string
		delivered, dropped, matching uint64
	}{
		{"undrained", held, sub.Dropped(), 100},
		{"unmatched", uint64(len(other.C())), other.Dropped(), 0},
		{"drained", <-delivered, drained.Dropped(), 100},
	}
	for _, l := range ledger {
		if l.delivered+l.dropped != l.matching {
			t.Errorf("%s: delivered %d + dropped %d != %d matching publishes", l.name, l.delivered, l.dropped, l.matching)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 4)
	sub.Close()
	sub.Close() // idempotent
	b.Publish(Message{Topic: "t"})
	if _, ok := <-sub.C(); ok {
		t.Fatal("received on closed subscription")
	}
}

func TestBusCloseClosesSubscribers(t *testing.T) {
	b := NewBus()
	sub, _ := b.Subscribe("", 4)
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel not closed")
	}
	if _, err := b.Subscribe("", 1); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub, _ := b.Subscribe("", 1<<16)
	var wg sync.WaitGroup
	const perPub = 1000
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Message{Topic: fmt.Sprintf("pub%d", p)})
			}
		}(p)
	}
	wg.Wait()
	if len(sub.ch) != 8*perPub {
		t.Fatalf("received %d, want %d", len(sub.ch), 8*perPub)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		if len(topic) > 1000 {
			topic = topic[:1000]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Message{Topic: topic, Payload: payload}); err != nil {
			return false
		}
		m, err := NewFrameReader(&buf).Read()
		if err != nil {
			return false
		}
		return m.Topic == topic && bytes.Equal(m.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	// uvarint topic length of 1GB
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04, 0x00})
	if _, err := NewFrameReader(&buf).Read(); err != ErrFrameTooBig {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkPublishOneSubscriber(b *testing.B) {
	bus := NewBus()
	defer bus.Close()
	sub, _ := bus.Subscribe("", 1<<20)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Message{Topic: "latency.v4", Payload: payload})
		if len(sub.ch) > 1<<19 {
			for len(sub.ch) > 0 {
				<-sub.ch
			}
		}
	}
}

func BenchmarkPublishFourSubscribers(b *testing.B) {
	bus := NewBus()
	defer bus.Close()
	for i := 0; i < 4; i++ {
		s, _ := bus.Subscribe("", 64)
		go func() {
			for range s.C() {
			}
		}()
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Message{Topic: "latency.v4", Payload: payload})
	}
}
