package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
)

// TCP is the MPI-like transport: a full mesh of loopback TCP connections,
// one per ordered worker pair. Each message is a length-prefixed N-Triples
// payload; the receiver parses and re-interns it, acknowledging each frame
// so that a completed Send implies the triples are already in the receiving
// inbox — which is what lets the cluster barrier double as delivery
// guarantee. Compared with File it removes the filesystem round trip, which
// is exactly the improvement the paper projects from switching to MPI (§VI-B).
//
// Unlike the original fail-stop mesh, the connection layer is survivable:
//
//   - Every connection opens with a session hello carrying
//     (worker, epoch, round), so the acceptor knows who is talking and which
//     incarnation of the link this is.
//   - A Send whose connection breaks mid-frame marks the link broken and
//     re-dials with bounded exponential backoff, then resends the frame.
//   - Frames carry a per-sender sequence number; the receiver deduplicates
//     on (round, from, seq), so a frame resent after a lost ack is delivered
//     exactly once.
//
// The mesh does not judge liveness: a worker that stops is seen by the
// cluster's barrier frontier, not by the transport.
//
// Mid-stream corruption (truncated payloads, unparseable triples, garbage
// or misrouted headers) is still fatal: re-dialing cannot repair corrupt
// bytes, so those errors are buffered and surface on the next Send/Recv as
// ErrMalformed-class failures.
type TCP struct {
	// Obs, when non-nil, receives one Batch call per sent message with the
	// serialized frame payload size (self-sends carry interned IDs, 0 bytes)
	// and one Redialed call per link reconnection.
	Obs *obs.TransportRecorder

	dict *rdf.Dict
	k    int

	mu       sync.Mutex
	inbox    map[boxKey][]rdf.Triple
	seen     map[frameKey]struct{}
	errs     []error
	accepted []net.Conn
	redials  atomic.Int64
	seqs     []atomic.Int64 // per-sender frame sequence counters

	addrs     []string
	listeners []net.Listener
	links     [][]*link // links[from][to], nil on the diagonal
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Connection tuning of the reconnecting mesh.
const (
	maxRedials    = 4                    // re-dials one Send attempts before it fails
	redialBackoff = 2 * time.Millisecond // sleep before the first re-dial, doubling per attempt
	dialTimeout   = 2 * time.Second      // one dial + hello exchange
	ackTimeout    = 10 * time.Second     // one frame exchange, unless ctx's deadline is tighter
)

// link is the sender side of one ordered pair's connection. Its mutex
// serializes frame exchanges (a frame and its ack must not interleave with
// another sender-side exchange on the same connection).
type link struct {
	from, to int

	mu    sync.Mutex
	conn  net.Conn
	epoch int32 // dial count, announced in the session hello
	round int32 // last round this link carried (for the hello frame)
}

// frame types.
const (
	typeData  int32 = 0 // length-prefixed N-Triples payload
	typeHello int32 = 1 // session hello: From = worker, Seq = epoch, Round = sender round
)

// frameHeader precedes every frame (big-endian int32s).
type frameHeader struct {
	Type, Round, From, To, Seq, Len int32
}

// maxFrame bounds a frame payload; larger Len values are treated as header
// corruption. A Len within the bound is still only trusted as far as its
// bytes arrive: the reader allocates chunks of at most maxChunk bytes.
const (
	maxFrame = 1 << 28
	maxChunk = 1 << 20
)

// frameKey dedups delivered data frames: a frame resent after a lost ack
// carries the same (round, from, seq) and is delivered exactly once.
type frameKey struct {
	round, from, seq int32
}

// NewTCP builds the k-worker mesh on loopback ephemeral ports.
func NewTCP(k int, dict *rdf.Dict) (*TCP, error) {
	t := &TCP{
		dict:  dict,
		k:     k,
		inbox: map[boxKey][]rdf.Triple{},
		seen:  map[frameKey]struct{}{},
		seqs:  make([]atomic.Int64, k),
		addrs: make([]string, k),
		links: make([][]*link, k),
	}
	for i := range t.links {
		t.links[i] = make([]*link, k)
	}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport/tcp: listen: %w", err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs[i] = ln.Addr().String()
	}
	// Accept loops: each worker accepts connections for as long as the mesh
	// lives — a re-dialing peer shows up as a fresh connection with a fresh
	// session hello, not just at startup.
	for j := 0; j < k; j++ {
		ln, self := t.listeners[j], j
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed
				}
				t.mu.Lock()
				t.accepted = append(t.accepted, conn)
				t.mu.Unlock()
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.readLoop(conn, self)
				}()
			}
		}()
	}
	for from := 0; from < k; from++ {
		for to := 0; to < k; to++ {
			if from == to {
				continue
			}
			l := &link{from: from, to: to}
			t.links[from][to] = l
			l.mu.Lock()
			err := t.dialLocked(l)
			l.mu.Unlock()
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("transport/tcp: dial %d->%d: %w", from, to, err)
			}
		}
	}
	return t, nil
}

// Name implements Transport.
func (*TCP) Name() string { return "tcp" }

// dialLocked (re-)establishes l's connection and completes the session
// hello exchange. The caller holds l.mu.
func (t *TCP) dialLocked(l *link) error {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	conn, err := net.DialTimeout("tcp", t.addrs[l.to], dialTimeout)
	if err != nil {
		return err
	}
	l.epoch++
	hello := frameHeader{Type: typeHello, Round: l.round,
		From: int32(l.from), To: int32(l.to), Seq: l.epoch}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := binary.Write(conn, binary.BigEndian, hello); err != nil {
		conn.Close()
		return err
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(conn, ack); err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	l.conn = conn
	// Every dial after the link's first is a reconnection, whichever path
	// triggered it (send retry, next send after a drop).
	if l.epoch > 1 {
		t.redials.Add(1)
		t.Obs.Redialed(l.from, l.to)
	}
	return nil
}

// breakLocked marks the link broken so the next exchange re-dials; a conn
// that failed mid-frame must never be reused — the stream may hold a
// half-written frame, and interleaving a fresh frame into it would corrupt
// the peer's read loop. The caller holds l.mu.
func (l *link) breakLocked() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// DropLink severs the from->to connection as a running network fault would:
// the conn is closed under the link lock, and the next Send on the pair must
// re-dial. It reports whether there was a live connection to drop. Fault
// injection uses this to exercise the reconnect path end to end.
func (t *TCP) DropLink(from, to int) bool {
	if from < 0 || to < 0 || from >= t.k || to >= t.k || from == to {
		return false
	}
	l := t.links[from][to]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return false
	}
	l.breakLocked()
	return true
}

// exchangeLocked performs one frame exchange — header, optional payload,
// ack — under ackTimeout, or ctx's deadline when that is sooner. The caller
// holds l.mu.
func (t *TCP) exchangeLocked(ctx context.Context, l *link, hdr frameHeader, payload []byte) error {
	deadline := time.Now().Add(ackTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	l.conn.SetDeadline(deadline)
	defer l.conn.SetDeadline(time.Time{})
	if err := binary.Write(l.conn, binary.BigEndian, hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := l.conn.Write(payload); err != nil {
			return err
		}
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(l.conn, ack); err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	return nil
}

// Send implements Transport. Self-sends short-circuit through the inbox.
// A broken connection is re-dialed with bounded backoff and the frame is
// resent under the same sequence number (the receiver deduplicates), so a
// dropped link costs a reconnect, not the run. Any error buffered by an
// async readLoop (corrupted frame, truncated payload) surfaces here rather
// than being silently dropped.
func (t *TCP) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.firstErr(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	if from == to {
		t.deliver(round, to, ts)
		t.Obs.Batch(from, to, len(ts), 0)
		return nil
	}
	var buf bytes.Buffer
	w := ntriples.NewWriter(&buf, t.dict)
	if err := w.WriteAll(ts); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	hdr := frameHeader{Type: typeData, Round: int32(round),
		From: int32(from), To: int32(to),
		Seq: int32(t.seqs[from].Add(1)), Len: int32(buf.Len())}

	l := t.links[from][to]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.round = int32(round)
	var lastErr error
	for attempt := 0; attempt <= maxRedials; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(redialBackoff, attempt)); err != nil {
				return fmt.Errorf("transport/tcp: send %d->%d: %w (last error: %v)", from, to, err, lastErr)
			}
		}
		if l.conn == nil {
			if err := t.dialLocked(l); err != nil {
				lastErr = err
				continue
			}
		}
		if err := t.exchangeLocked(ctx, l, hdr, buf.Bytes()); err != nil {
			// The stream may hold a half-written frame: poison this conn so
			// the next attempt (and the next Send) re-dials instead of
			// interleaving into a corrupt stream.
			l.breakLocked()
			lastErr = err
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("transport/tcp: send %d->%d round %d: %w", from, to, round, cerr)
			}
			continue
		}
		t.Obs.Batch(from, to, len(ts), int64(buf.Len()))
		return nil
	}
	return fmt.Errorf("transport/tcp: send %d->%d round %d failed after %d redials: %w",
		from, to, round, maxRedials, lastErr)
}

// backoffDelay is the pre-dial sleep before the attempt-th redial (1-based),
// doubling from base and capped at 64×.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	return base << shift
}

// sleepCtx sleeps d unless ctx fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Redials reports how many link reconnections the mesh has performed.
func (t *TCP) Redials() int64 { return t.redials.Load() }

// readLoop consumes one connection accepted by worker self's listener. A
// clean peer close — EOF at a frame boundary — ends the loop silently: that
// is how a re-dialing peer retires its old connection. Anything else
// mid-stream (truncated header or payload, unparseable triples, garbage
// frame type, a frame not from a peer to self) is corruption and is
// recorded via t.fail so the next Send/Recv surfaces it.
func (t *TCP) readLoop(conn net.Conn, self int) {
	peer := -1
	for {
		var hdr frameHeader
		if err := binary.Read(conn, binary.BigEndian, &hdr); err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				return // clean close at a frame boundary
			}
			t.fail(fmt.Errorf("transport/tcp: header from peer %d: %w", peer, err))
			return
		}
		// Every link dials its receiver's listener and self-sends never
		// touch the wire, so any other routing is a corrupt header.
		if int(hdr.To) != self || hdr.From < 0 || int(hdr.From) >= t.k || hdr.From == hdr.To {
			t.fail(fmt.Errorf("transport/tcp: %w: frame %d->%d on worker %d's listener",
				ErrMalformed, hdr.From, hdr.To, self))
			return
		}
		peer = int(hdr.From)
		switch hdr.Type {
		case typeHello: // opens a session; the ack completes the dial
		case typeData:
			if hdr.Len < 0 || hdr.Len > maxFrame {
				t.fail(fmt.Errorf("transport/tcp: %w: frame length %d from peer %d",
					ErrMalformed, hdr.Len, peer))
				return
			}
			payload, err := readPayload(conn, int(hdr.Len))
			if err != nil {
				t.fail(fmt.Errorf("transport/tcp: payload from peer %d: %w", peer, err))
				return
			}
			key := frameKey{hdr.Round, hdr.From, hdr.Seq}
			if !t.alreadySeen(key) {
				ts, err := ntriples.ReadTriples(payload, t.dict)
				if err != nil {
					t.fail(fmt.Errorf("transport/tcp: %w: %v", ErrMalformed, err))
					return
				}
				t.markSeen(key)
				t.deliver(int(hdr.Round), self, ts)
			}
		default:
			t.fail(fmt.Errorf("transport/tcp: %w: unknown frame type %d from peer %d",
				ErrMalformed, hdr.Type, peer))
			return
		}
		if _, err := conn.Write([]byte{1}); err != nil {
			return // sender will observe the lost ack and re-dial
		}
	}
}

// readPayload reads an n-byte payload in chunks of at most maxChunk bytes,
// each allocated only once the previous one has filled, so a header
// claiming more bytes than arrive cannot reserve them. A stream that ends
// first is io.ErrUnexpectedEOF.
func readPayload(r io.Reader, n int) (io.Reader, error) {
	var chunks []io.Reader
	for n > 0 {
		c := make([]byte, min(n, maxChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		chunks = append(chunks, bytes.NewReader(c))
		n -= len(c)
	}
	return io.MultiReader(chunks...), nil
}

// alreadySeen reports whether a data frame was delivered before (a resend
// after a lost ack).
func (t *TCP) alreadySeen(key frameKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.seen[key]
	return ok
}

func (t *TCP) markSeen(key frameKey) {
	t.mu.Lock()
	t.seen[key] = struct{}{}
	t.mu.Unlock()
}

func (t *TCP) deliver(round, to int, ts []rdf.Triple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := boxKey{round, to}
	t.inbox[k] = append(t.inbox[k], ts...)
}

func (t *TCP) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs = append(t.errs, err)
}

// firstErr returns the first error buffered by the async read loops, if any.
func (t *TCP) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	return nil
}

// Recv implements Transport.
func (t *TCP) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return nil, t.errs[0]
	}
	k := boxKey{round, to}
	ts := t.inbox[k]
	delete(t.inbox, k)
	return ts, nil
}

// Close implements Transport, tearing down the mesh: listeners close
// (ending the accept loops), and every connection — dialed and accepted —
// is closed, ending the read loops.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		for _, ln := range t.listeners {
			ln.Close()
		}
		for _, row := range t.links {
			for _, l := range row {
				if l == nil {
					continue
				}
				l.mu.Lock()
				l.breakLocked()
				l.mu.Unlock()
			}
		}
		t.mu.Lock()
		accepted := t.accepted
		t.accepted = nil
		t.mu.Unlock()
		for _, c := range accepted {
			c.Close()
		}
		t.wg.Wait()
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	return nil
}
