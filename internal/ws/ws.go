// Package ws implements the WebSocket protocol (RFC 6455) server and client
// used to stream enriched measurements to Ruru's live frontends (paper §2:
// results are "sent ... to the frontend (using WebSockets) that displays the
// results in real-time").
//
// Only what the pipeline needs is implemented, but implemented properly:
// the HTTP upgrade handshake, frame encode/decode with 7/16/64-bit lengths,
// client-to-server masking (enforced), fragmentation reassembly with limits,
// ping/pong keepalive, and the close handshake. The Hub (hub.go) fans
// broadcast messages out to every connected frontend with per-client send
// budgets so one slow browser cannot stall the pipeline.
package ws

import (
	"bufio"
	crand "crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Opcode is a WebSocket frame opcode.
type Opcode byte

// RFC 6455 §5.2 opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Errors returned by the package.
var (
	ErrNotWebSocket   = errors.New("ws: not a websocket handshake")
	ErrBadFrame       = errors.New("ws: malformed frame")
	ErrMessageTooBig  = errors.New("ws: message exceeds limit")
	ErrUnmaskedClient = errors.New("ws: client frame not masked")
	ErrClosed         = errors.New("ws: connection closed")
)

const websocketGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// DefaultMaxMessage bounds reassembled message size.
const DefaultMaxMessage = 1 << 20

// acceptKey computes the Sec-WebSocket-Accept header value.
func acceptKey(key string) string {
	h := sha1.New()
	io.WriteString(h, key)
	io.WriteString(h, websocketGUID)
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// Conn is an established WebSocket connection. Reads and writes may proceed
// concurrently with each other (one reader + one writer goroutine).
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	server bool // server side: expect masked frames, send unmasked

	writeMu sync.Mutex
	closed  bool
	wbuf    []byte      // frame headers (and masked payloads), under writeMu
	wvec    net.Buffers // the write's vector, under writeMu

	MaxMessage int
	rng        *rand.Rand
}

// Upgrade performs the server-side handshake on an http request and returns
// the connection. The http.ResponseWriter must support hijacking.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Method, "GET") ||
		!headerContainsToken(r.Header, "Connection", "upgrade") ||
		!headerContainsToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, ErrNotWebSocket
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, ErrNotWebSocket
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, ErrNotWebSocket
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "cannot hijack", http.StatusInternalServerError)
		return nil, ErrNotWebSocket
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, err
	}
	return &Conn{conn: conn, br: rw.Reader, server: true, MaxMessage: DefaultMaxMessage}, nil
}

func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial connects a client to a ws:// URL (host:port/path form).
func Dial(url string) (*Conn, error) {
	rest, ok := strings.CutPrefix(url, "ws://")
	if !ok {
		return nil, fmt.Errorf("ws: unsupported url %q", url)
	}
	host, path, _ := strings.Cut(rest, "/")
	path = "/" + path
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	// RFC 6455 §4.1: the Sec-WebSocket-Key nonce must be "selected
	// randomly" — unpredictably, so a server cannot be confused by a
	// replayed or guessed handshake. math/rand (the previous source) is
	// seedable and predictable; use the CSPRNG.
	var keyBytes [16]byte
	if _, err := crand.Read(keyBytes[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake nonce: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\n"+
		"Upgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", path, host, key)
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake rejected: %s", strings.TrimSpace(status))
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(k, "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if accept != acceptKey(key) {
		conn.Close()
		return nil, errors.New("ws: bad Sec-WebSocket-Accept")
	}
	// Masking keys need not be cryptographically strong (they defeat
	// proxy cache poisoning, not an observer), but seed the fast PRNG
	// from the CSPRNG so distinct connections never share a mask stream.
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: mask seed: %w", err)
	}
	return &Conn{
		conn: conn, br: br, server: false,
		MaxMessage: DefaultMaxMessage,
		rng:        rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))),
	}, nil
}

// frame header scratch: opcode+len(9)+mask(4)
type frameHeader struct {
	fin    bool
	opcode Opcode
	masked bool
	length int64
	mask   [4]byte
}

func (c *Conn) readHeader(h *frameHeader) error {
	var b [2]byte
	if _, err := io.ReadFull(c.br, b[:]); err != nil {
		return err
	}
	h.fin = b[0]&0x80 != 0
	if b[0]&0x70 != 0 {
		return ErrBadFrame // RSV bits without negotiated extension
	}
	h.opcode = Opcode(b[0] & 0x0f)
	h.masked = b[1]&0x80 != 0
	n := int64(b[1] & 0x7f)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return err
		}
		n = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return err
		}
		v := binary.BigEndian.Uint64(ext[:])
		if v > 1<<40 {
			return ErrMessageTooBig
		}
		n = int64(v)
	}
	h.length = n
	if h.masked {
		if _, err := io.ReadFull(c.br, h.mask[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage returns the next complete data message (reassembling
// fragments) and its opcode (OpText or OpBinary). Control frames are
// handled transparently: pings are answered, pongs ignored; a close frame
// completes the close handshake and returns ErrClosed. A control frame
// longer than 125 bytes or without FIN is ErrBadFrame.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	var (
		msg    []byte
		msgOp  Opcode
		inFrag bool
	)
	for {
		var h frameHeader
		if err := c.readHeader(&h); err != nil {
			return 0, nil, err
		}
		if c.server && !h.masked && h.length > 0 {
			return 0, nil, ErrUnmaskedClient
		}
		if h.opcode >= OpClose && (!h.fin || h.length > 125) {
			// RFC 6455 §5.5: a control frame carries at most 125 bytes and
			// is never fragmented. Refused before its payload is read, so
			// a ping can cost neither a 1 MiB buffer nor a 1 MiB pong.
			return 0, nil, ErrBadFrame
		}
		if h.length > int64(c.MaxMessage) || int64(len(msg))+h.length > int64(c.MaxMessage) {
			return 0, nil, ErrMessageTooBig
		}
		payload := make([]byte, h.length)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return 0, nil, err
		}
		if h.masked {
			maskBytes(h.mask, 0, payload)
		}
		switch h.opcode {
		case OpPing:
			if err := c.writeFrames(OpPong, true, payload); err != nil {
				return 0, nil, err
			}
		case OpPong:
			// keepalive response; ignore
		case OpClose:
			// Echo the close and report.
			c.writeFrames(OpClose, true, payload)
			c.conn.Close()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if inFrag {
				return 0, nil, ErrBadFrame // new message before continuation end
			}
			if h.fin {
				return h.opcode, payload, nil
			}
			inFrag = true
			msgOp = h.opcode
			msg = append(msg, payload...)
		case OpContinuation:
			if !inFrag {
				return 0, nil, ErrBadFrame
			}
			msg = append(msg, payload...)
			if h.fin {
				return msgOp, msg, nil
			}
		default:
			return 0, nil, ErrBadFrame
		}
	}
}

func maskBytes(mask [4]byte, offset int, b []byte) {
	for i := range b {
		b[i] ^= mask[(offset+i)&3]
	}
}

// maxFrameHeader is the longest frame header: two bytes, a 64-bit length
// and a masking key.
const maxFrameHeader = 14

// writeFrames emits one frame per payload, each with opcode op and the given
// FIN bit, in a single vectored write: headers and payloads go out in order
// as one net.Buffers, so a batch costs one syscall. A client masks each
// payload into its own scratch, leaving the caller's buffers untouched; a
// server sends the payloads as they are.
func (c *Conn) writeFrames(op Opcode, fin bool, payloads ...[]byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.writeFramesLocked(op, fin, payloads)
}

// writeFramesLocked is writeFrames with writeMu held and the Conn open.
func (c *Conn) writeFramesLocked(op Opcode, fin bool, payloads [][]byte) error {
	size := 0
	for _, p := range payloads {
		size += maxFrameHeader
		if !c.server {
			size += len(p)
		}
	}
	if cap(c.wbuf) < size {
		c.wbuf = make([]byte, 0, size)
	}
	b0, maskBit := byte(op), byte(0)
	if fin {
		b0 |= 0x80
	}
	if !c.server {
		maskBit = 0x80
	}
	// buf stays within its capacity, so the slices of it in vec stay valid.
	buf, vec := c.wbuf[:0], c.wvec[:0]
	for _, p := range payloads {
		start := len(buf)
		buf = append(buf, b0)
		switch n := len(p); {
		case n < 126:
			buf = append(buf, maskBit|byte(n))
		case n <= 0xffff:
			buf = binary.BigEndian.AppendUint16(append(buf, maskBit|126), uint16(n))
		default:
			buf = binary.BigEndian.AppendUint64(append(buf, maskBit|127), uint64(n))
		}
		if c.server {
			vec = append(vec, buf[start:], p)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, c.rng.Uint32())
		m := len(buf)
		buf = append(buf, p...)
		maskBytes([4]byte(buf[m-4:m]), 0, buf[m:])
		vec = append(vec, buf[start:])
	}
	out := vec // WriteTo consumes its receiver; vec keeps the storage
	_, err := out.WriteTo(c.conn)
	clear(vec) // drop the payloads until the next write
	c.wbuf, c.wvec = buf, vec[:0]
	return err
}

// WriteMessage sends one unfragmented data message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return ErrBadFrame
	}
	return c.writeFrames(op, true, payload)
}

// Ping sends a ping control frame.
func (c *Conn) Ping(data []byte) error { return c.writeFrames(OpPing, true, data) }

// Close performs the closing handshake (best-effort) and closes the socket.
func (c *Conn) Close() error {
	c.writeMu.Lock()
	if c.closed {
		c.writeMu.Unlock()
		return nil
	}
	// Best-effort close frame with status 1000 (normal).
	c.writeFramesLocked(OpClose, true, [][]byte{{0x03, 0xe8}})
	c.closed = true
	c.writeMu.Unlock()
	c.conn.SetDeadline(time.Now().Add(100 * time.Millisecond))
	return c.conn.Close()
}

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }
