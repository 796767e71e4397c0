// Package mq is the ZeroMQ substitute: a topic-based PUB/SUB message bus
// that decouples Ruru's pipeline stages exactly the way the paper's ZeroMQ
// sockets do (§2: "zero-copy ZeroMQ sockets ... allowing efficient and fast
// interconnect of modules", including the ability to splice a filter module
// into the pipeline).
//
// Two transports are provided:
//
//   - inproc: in-process subscriptions backed by buffered channels — the
//     zero-copy path between the DPDK app and the analytics stage;
//   - tcp: length-prefixed frames over TCP for out-of-process subscribers
//     (the frontend bridge), with the same topic semantics.
//
// Semantics follow ZeroMQ PUB/SUB: publishers never block. Each subscriber
// has a high-water mark; when a subscriber's queue is full, messages for it
// are dropped and counted. Topic matching is prefix-based, like ZeroMQ
// subscription filters.
package mq

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// or hostile length costs a TCP peer at most this much memory.
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

// --- Wire framing (TCP transport) ---

// writeFrame emits topic and payload with uvarint length prefixes.
func writeFrame(w io.Writer, msg Message) error {
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

// readFrame reads one frame. The returned message owns its buffers.
func readFrame(r *frameReader) (Message, error) {
	tlen, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	if tlen > maxFrame || plen > maxFrame-tlen {
		return Message{}, ErrFrameTooBig
	}
	buf := make([]byte, tlen+plen)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return Message{}, err
	}
	return Message{Topic: string(buf[:tlen]), Payload: buf[tlen:]}, nil
}

type frameReader struct {
	r io.Reader
	b [1]byte
}

func (f *frameReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(f.r, f.b[:]); err != nil {
		return 0, err
	}
	return f.b[0], nil
}

// WriteFrame writes one frame in the TCP transport's wire format (uvarint
// topic and payload lengths, then the bytes). It is the framing layer
// point-to-point protocols built on this transport reuse — the federation
// probe↔aggregator stream (internal/fed) speaks frames in both directions
// over one connection, unlike the one-way PUB/SUB endpoints below.
func WriteFrame(w io.Writer, msg Message) error { return writeFrame(w, msg) }

// FrameReader decodes the TCP transport's frames from a byte stream. Each
// returned Message owns its buffers. Not safe for concurrent use.
type FrameReader struct {
	fr frameReader
}

// NewFrameReader wraps r for frame-at-a-time reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{fr: frameReader{r: r}}
}

// Read blocks for the next frame. Oversized length prefixes fail with
// ErrFrameTooBig before any allocation is attempted.
func (r *FrameReader) Read() (Message, error) {
	return readFrame(&r.fr)
}

// --- TCP publisher endpoint ---

// TCPPublisher bridges a Bus onto a TCP listener: every remote subscriber
// receives the frames matching its requested prefix. Wire protocol: the
// subscriber sends one frame (topic = subscription prefix, empty payload),
// then receives frames forever.
type TCPPublisher struct {
	bus *Bus
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPPublisher starts serving bus messages on addr (e.g. "127.0.0.1:0").
func NewTCPPublisher(bus *Bus, addr string) (*TCPPublisher, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &TCPPublisher{bus: bus, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the bound listen address.
func (p *TCPPublisher) Addr() net.Addr { return p.ln.Addr() }

func (p *TCPPublisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *TCPPublisher) serve(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
	}()
	// Handshake: read the subscription prefix.
	hello, err := readFrame(&frameReader{r: conn})
	if err != nil {
		return
	}
	sub, err := p.bus.Subscribe(hello.Topic, 0)
	if err != nil {
		return
	}
	defer sub.Close()
	// Subscribers send nothing after the handshake; a read unblocking
	// means the peer hung up (or Close closed the conn). Closing the
	// subscription unblocks the send loop below.
	go func() {
		var scratch [1]byte
		for {
			if _, err := conn.Read(scratch[:]); err != nil {
				sub.Close()
				return
			}
		}
	}()
	// Frames go through a buffered writer flushed only when the
	// subscription queue is momentarily empty: a draining burst costs one
	// syscall per buffer-full instead of the three unbuffered conn.Writes
	// per frame (header, topic, payload) the old loop issued, while the
	// flush-on-idle keeps per-frame latency when traffic is sparse.
	bw := bufio.NewWriterSize(conn, 64<<10)
	for msg := range sub.C() {
		if err := writeFrame(bw, msg); err != nil {
			return
		}
		for drained := false; !drained; {
			select {
			case next, ok := <-sub.C():
				if !ok {
					bw.Flush()
					return
				}
				if err := writeFrame(bw, next); err != nil {
					return
				}
			default:
				drained = true
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops accepting, drops all remote subscribers and waits for the
// serving goroutines.
func (p *TCPPublisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	// Bus subscriptions of live conns close when their reads fail; wait.
	p.wg.Wait()
	return err
}

// --- TCP subscriber ---

// TCPSubscriber connects to a TCPPublisher and receives matching frames.
type TCPSubscriber struct {
	conn net.Conn
	fr   frameReader
}

// DialTCP connects and subscribes to the given topic prefix.
func DialTCP(addr, prefix string) (*TCPSubscriber, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, Message{Topic: prefix}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mq: subscribe handshake: %w", err)
	}
	return &TCPSubscriber{conn: conn, fr: frameReader{r: conn}}, nil
}

// Recv blocks for the next message.
func (s *TCPSubscriber) Recv() (Message, error) {
	return readFrame(&s.fr)
}

// Close closes the connection.
func (s *TCPSubscriber) Close() error { return s.conn.Close() }
