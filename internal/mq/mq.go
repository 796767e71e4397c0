// Package mq is the ZeroMQ substitute: a topic-based PUB/SUB message bus
// that decouples Ruru's pipeline stages exactly the way the paper's ZeroMQ
// sockets do (§2: "zero-copy ZeroMQ sockets ... allowing efficient and fast
// interconnect of modules", including the ability to splice a filter module
// into the pipeline).
//
// The Bus is in-process: subscriptions are buffered channels, the zero-copy
// path between the DPDK app and the analytics stage. For byte streams the
// package also provides its wire framing (uvarint-length topic and payload),
// which the federation probe↔aggregator protocol (internal/fed) speaks over
// TCP.
//
// Semantics follow ZeroMQ PUB/SUB: publishers never block. Each subscriber
// has a high-water mark; when a subscriber's queue is full, messages for it
// are dropped and counted. Topic matching is prefix-based, like ZeroMQ
// subscription filters.
package mq

import (
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Message is one published datum: a topic and an opaque payload.
type Message struct {
	Topic   string
	Payload []byte
}

// DefaultHWM is the default per-subscriber high-water mark.
const DefaultHWM = 8192

// Errors returned by the package.
var (
	ErrClosed      = errors.New("mq: closed")
	ErrFrameTooBig = errors.New("mq: frame exceeds limit")
)

// maxFrame bounds a wire frame's topic and payload together, so a corrupt
// or hostile length costs a peer at most this much memory.
const maxFrame = 16 << 20

// Bus is an in-process PUB/SUB broker. Safe for concurrent use.
type Bus struct {
	mu     sync.RWMutex
	subs   map[*Subscription]struct{}
	closed bool

	published atomic.Uint64
	dropped   atomic.Uint64
}

// NewBus returns an empty broker.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's queue.
type Subscription struct {
	bus    *Bus
	prefix string
	ch     chan Message
	once   sync.Once

	dropped atomic.Uint64
}

// Subscribe registers a subscriber for all topics with the given prefix
// ("" = everything). hwm ≤ 0 uses DefaultHWM.
func (b *Bus) Subscribe(prefix string, hwm int) (*Subscription, error) {
	if hwm <= 0 {
		hwm = DefaultHWM
	}
	s := &Subscription{bus: b, prefix: prefix, ch: make(chan Message, hwm)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.subs[s] = struct{}{}
	return s, nil
}

// C returns the subscriber's receive channel. It is closed when the
// subscription (or the bus) is closed.
func (s *Subscription) C() <-chan Message { return s.ch }

// Dropped returns how many messages were discarded because this subscriber
// was over its high-water mark.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Drain receives from ch, waiting while upstream is open. Once upstream is
// closed it waits no more: it reports false when ch is empty or closed. A
// stage that reads its queue through Drain, with upstream closed once the
// stage feeding it has stopped, empties the queue on shutdown and returns.
func Drain[T any](upstream <-chan struct{}, ch <-chan T) (v T, ok bool) {
	select {
	case v, ok = <-ch:
	case <-upstream:
		select {
		case v, ok = <-ch:
		default:
		}
	}
	return v, ok
}

// Close unsubscribes. Safe to call twice.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		s.bus.mu.Unlock()
		close(s.ch)
	})
}

// Publish delivers msg to every matching subscriber without blocking:
// subscribers at their HWM miss the message (counted on both sides).
// The payload is not copied; subscribers must treat it as read-only.
func (b *Bus) Publish(msg Message) {
	b.published.Add(1)
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return
	}
	for s := range b.subs {
		if !strings.HasPrefix(msg.Topic, s.prefix) {
			continue
		}
		select {
		case s.ch <- msg:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
}

// Stats returns (published, dropped) counters.
func (b *Bus) Stats() (published, dropped uint64) {
	return b.published.Load(), b.dropped.Load()
}

// Close shuts the bus and all subscriptions.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// --- Wire framing ---

// WriteFrame writes one frame: uvarint topic and payload lengths, then the
// bytes. Point-to-point protocols reuse it; the federation probe↔aggregator
// stream (internal/fed) speaks frames in both directions over one
// connection.
func WriteFrame(w io.Writer, msg Message) error {
	if len(msg.Topic)+len(msg.Payload) > maxFrame {
		return ErrFrameTooBig
	}
	var hdr [2 * binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(msg.Topic)))
	n += binary.PutUvarint(hdr[n:], uint64(len(msg.Payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, msg.Topic); err != nil {
		return err
	}
	_, err := w.Write(msg.Payload)
	return err
}

// FrameReader decodes WriteFrame's frames from a byte stream. Each returned
// Message owns its buffers. Not safe for concurrent use.
type FrameReader struct {
	br byteReader
}

// NewFrameReader wraps r for frame-at-a-time reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: byteReader{r: r}}
}

// Read blocks for the next frame. Oversized length prefixes fail with
// ErrFrameTooBig before any allocation is attempted.
func (f *FrameReader) Read() (Message, error) {
	tlen, err := binary.ReadUvarint(&f.br)
	if err != nil {
		return Message{}, err
	}
	plen, err := binary.ReadUvarint(&f.br)
	if err != nil {
		return Message{}, err
	}
	if tlen > maxFrame || plen > maxFrame-tlen {
		return Message{}, ErrFrameTooBig
	}
	buf := make([]byte, tlen+plen)
	if _, err := io.ReadFull(f.br.r, buf); err != nil {
		return Message{}, err
	}
	return Message{Topic: string(buf[:tlen]), Payload: buf[tlen:]}, nil
}

// byteReader feeds binary.ReadUvarint one byte at a time without reading
// past the length prefixes.
type byteReader struct {
	r io.Reader
	b [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.b[:]); err != nil {
		return 0, err
	}
	return b.b[0], nil
}
