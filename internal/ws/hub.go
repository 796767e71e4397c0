package ws

import (
	"net/http"
	"sync"
	"sync/atomic"
)

// writeBatch caps the frames a client's writer sends in one write: the
// frame it woke for plus whatever is already queued behind it. Under load a
// viewer then costs one syscall per batch instead of one per frame.
const writeBatch = 8

// Hub broadcasts messages to every connected WebSocket client. Each client
// has a buffered outbound queue; when a client falls behind by more than its
// queue depth, messages for it are dropped (counted), so the live map keeps
// its real-time property no matter how slow an individual browser is —
// matching the paper's "visualizes multiple thousands of connections per
// second ... on-the-fly" requirement.
type Hub struct {
	queue int

	mu      sync.Mutex
	clients map[*hubClient]struct{}
	closed  bool

	// n mirrors len(clients) so the audience probe is lock-free: the
	// pipeline's sink workers check it per batch to skip JSON marshalling
	// entirely when nobody is watching.
	n atomic.Int64

	sent    atomic.Uint64
	dropped atomic.Uint64
}

type hubClient struct {
	conn *Conn
	ch   chan []byte
	once sync.Once
}

// NewHub creates a hub with the given per-client queue depth (default 256).
func NewHub(queue int) *Hub {
	if queue <= 0 {
		queue = 256
	}
	return &Hub{queue: queue, clients: make(map[*hubClient]struct{})}
}

// ServeHTTP upgrades the request and services the client until it leaves.
// There is one feed, so a non-empty `stream` query parameter is rejected
// with 400 before the upgrade.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") != "" {
		http.Error(w, "unknown stream (there is only the live feed)", http.StatusBadRequest)
		return
	}
	conn, err := Upgrade(w, r)
	if err != nil {
		return
	}
	c := &hubClient{conn: conn, ch: make(chan []byte, h.queue)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.clients[c] = struct{}{}
	h.n.Store(int64(len(h.clients)))
	h.mu.Unlock()

	// Reader goroutine: clients don't send data, but reading services
	// ping/pong and detects disconnects.
	go func() {
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				h.drop(c)
				return
			}
		}
	}()
	batch := make([][]byte, 0, writeBatch)
	for msg := range c.ch {
		batch = append(batch[:0], msg)
	fill:
		for len(batch) < writeBatch {
			select {
			case m, ok := <-c.ch:
				if !ok {
					break fill
				}
				batch = append(batch, m)
			default:
				break fill
			}
		}
		if err := conn.writeFrames(OpText, true, batch...); err != nil {
			h.drop(c)
			return
		}
		h.sent.Add(uint64(len(batch)))
	}
	conn.Close()
}

func (h *Hub) drop(c *hubClient) {
	h.mu.Lock()
	if _, ok := h.clients[c]; ok {
		delete(h.clients, c)
		h.n.Store(int64(len(h.clients)))
		c.once.Do(func() { close(c.ch) })
	}
	h.mu.Unlock()
	c.conn.Close()
}

// Broadcast queues msg for every client without blocking. Clients over
// their queue depth miss the message.
func (h *Hub) Broadcast(msg []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for c := range h.clients {
		select {
		case c.ch <- msg:
		default:
			h.dropped.Add(1)
		}
	}
}

// LiveClients returns the number of connected clients. Lock-free: safe to
// call from every sink worker on every batch.
func (h *Hub) LiveClients() int {
	return int(h.n.Load())
}

// Stats returns (messages sent, messages dropped to slow clients).
func (h *Hub) Stats() (sent, dropped uint64) {
	return h.sent.Load(), h.dropped.Load()
}

// Close disconnects all clients and refuses new ones.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	clients := make([]*hubClient, 0, len(h.clients))
	for c := range h.clients {
		clients = append(clients, c)
	}
	h.clients = map[*hubClient]struct{}{}
	h.n.Store(0)
	h.mu.Unlock()
	for _, c := range clients {
		c.once.Do(func() { close(c.ch) })
		c.conn.Close()
	}
}
