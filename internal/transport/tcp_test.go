package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestTCPDropLinkReconnects: severing a live connection mid-run must cost a
// re-dial, not the message — the next Send re-establishes the link and the
// payload arrives exactly once.
func TestTCPDropLinkReconnects(t *testing.T) {
	dict, ts := newDictWithTriples(6)
	tr, err := NewTCP(2, dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	if err := tr.Send(ctx, 0, 0, 1, ts[:3]); err != nil {
		t.Fatal(err)
	}
	if !tr.DropLink(0, 1) {
		t.Fatal("DropLink found no live connection to drop")
	}
	if tr.DropLink(0, 1) {
		t.Fatal("second DropLink should find the link already down")
	}
	if err := tr.Send(ctx, 1, 0, 1, ts[3:]); err != nil {
		t.Fatalf("send after drop did not reconnect: %v", err)
	}
	if got := tr.Redials(); got != 1 {
		t.Fatalf("expected 1 redial, got %d", got)
	}
	in, err := tr.Recv(ctx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 3 {
		t.Fatalf("expected 3 triples after reconnect, got %d", len(in))
	}
}

// TestTCPFrameDedup: a frame resent under the same (round, from, seq) — as a
// sender re-dialing after a lost ack would — must be delivered exactly once.
func TestTCPFrameDedup(t *testing.T) {
	dict, ts := newDictWithTriples(2)
	tr, err := NewTCP(2, dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payload := idPayload(uint64(ts[0].S), uint64(ts[0].P), uint64(ts[0].O))
	hdr := frameHeader{Type: typeData, Round: 0, From: 0, To: 1, Seq: 99,
		Len: int32(len(payload))}
	l := tr.links[0][1]
	l.mu.Lock()
	for i := 0; i < 2; i++ {
		if err := tr.exchangeLocked(context.Background(), l, hdr, payload); err != nil {
			l.mu.Unlock()
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	l.mu.Unlock()

	in, err := tr.Recv(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 {
		t.Fatalf("duplicate frame delivered: got %d triples, want 1", len(in))
	}
}

// idPayload encodes a data frame payload: one uvarint per term ID, three
// per triple on a well-formed frame.
func idPayload(ids ...uint64) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// TestTCPFrameBadIDs: a data frame is IDs of the mesh's shared dictionary,
// three per triple. An ID outside 1..Len, a payload that is not a whole
// number of triples, or a uvarint cut short is corruption: the read loop
// buffers ErrMalformed and delivers nothing.
func TestTCPFrameBadIDs(t *testing.T) {
	dict, ts := newDictWithTriples(2)
	n := uint64(dict.Len())
	s, p, o := uint64(ts[0].S), uint64(ts[0].P), uint64(ts[0].O)
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"ID 0", idPayload(s, p, 0)},
		{"ID past Len", idPayload(s, n+1, o)},
		{"ID past 32 bits", idPayload(s, p, 1<<40)},
		{"four IDs", idPayload(s, p, o, s)},
		{"truncated uvarint", append(idPayload(s, p, o), 0x80)},
	} {
		name, payload := c.name, c.payload
		tr, err := NewTCP(2, dict)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		hdr := frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: int32(len(payload))}
		if err := binary.Write(conn, binary.BigEndian, hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := waitRecvErr(t, tr, 1); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: expected ErrMalformed, got %v", name, err)
		}
		tr.mu.Lock()
		delivered := len(tr.inbox)
		tr.mu.Unlock()
		if delivered != 0 {
			t.Fatalf("%s: frame was delivered", name)
		}
		conn.Close()
		_ = tr.Close()
	}
}

// TestTCPCleanCloseVsCorruption: a peer closing its connection at a frame
// boundary is normal (re-dial retires old conns); garbage mid-stream must
// surface as an error on the next operation, not be swallowed.
func TestTCPCleanCloseVsCorruption(t *testing.T) {
	dict, _ := newDictWithTriples(1)

	t.Run("clean close is silent", func(t *testing.T) {
		tr, err := NewTCP(2, dict)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		// Dial worker 1's listener directly, hello, then close cleanly.
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		hello := frameHeader{Type: typeHello, From: 0, To: 1, Seq: 7}
		if err := binary.Write(conn, binary.BigEndian, hello); err != nil {
			t.Fatal(err)
		}
		ack := make([]byte, 1)
		if _, err := io.ReadFull(conn, ack); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		time.Sleep(20 * time.Millisecond)
		if _, err := tr.Recv(context.Background(), 0, 1); err != nil {
			t.Fatalf("clean close surfaced as error: %v", err)
		}
	})

	t.Run("mid-stream garbage surfaces", func(t *testing.T) {
		tr, err := NewTCP(2, dict)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			// Close returns the buffered corruption error; don't fail on it.
			_ = tr.Close()
		}()
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A torn header: 10 bytes then close, not a multiple of the frame
		// header size — binary.Read fails with ErrUnexpectedEOF mid-frame.
		if _, err := conn.Write(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitRecvErr(t, tr, 1)
	})

	t.Run("oversized frame length is malformed", func(t *testing.T) {
		tr, err := NewTCP(2, dict)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		bad := frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: maxFrame + 1}
		if err := binary.Write(conn, binary.BigEndian, bad); err != nil {
			t.Fatal(err)
		}
		if err := waitRecvErr(t, tr, 1); !errors.Is(err, ErrMalformed) {
			t.Fatalf("expected ErrMalformed, got %v", err)
		}
	})

	// A header may claim up to maxFrame bytes; the reader must not reserve
	// them before they arrive.
	t.Run("oversized claimed length, short body", func(t *testing.T) {
		tr, err := NewTCP(2, dict)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tr.Close() }()
		conn, err := net.Dial("tcp", tr.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hdr := frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: maxFrame}
		if err := binary.Write(conn, binary.BigEndian, hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("<")); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if err := waitRecvErr(t, tr, 1); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("expected a truncated-payload error, got %v", err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<20 {
			t.Fatalf("a 1-byte body claiming %d bytes allocated %d MB", maxFrame, d>>20)
		}
	})

	t.Run("misrouted frame is malformed", func(t *testing.T) {
		payload := idPayload(1, 2, 3)
		for _, hdr := range []frameHeader{
			{Type: typeData, From: 0, To: 2}, // addressed to another worker
			{Type: typeData, From: 3, To: 1}, // sender outside the mesh
			{Type: typeData, From: 1, To: 1}, // a self-send on the wire
		} {
			tr, err := NewTCP(3, dict)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", tr.addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			hdr.Seq, hdr.Len = 1, int32(len(payload))
			if err := binary.Write(conn, binary.BigEndian, hdr); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := waitRecvErr(t, tr, 1); !errors.Is(err, ErrMalformed) {
				t.Fatalf("frame %d->%d on worker 1: expected ErrMalformed, got %v", hdr.From, hdr.To, err)
			}
			tr.mu.Lock()
			delivered := len(tr.inbox)
			tr.mu.Unlock()
			if delivered != 0 {
				t.Fatalf("frame %d->%d on worker 1 was delivered", hdr.From, hdr.To)
			}
			conn.Close()
			_ = tr.Close()
		}
	})
}

// waitRecvErr polls worker to's round-0 Recv until it surfaces an error
// buffered by a read loop, and returns that error.
func waitRecvErr(t *testing.T, tr *TCP, to int) error {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := tr.Recv(context.Background(), 0, to); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatal("read-loop error never surfaced on Recv")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPSendPoisonedConnRedials: a Send that fails mid-frame must mark the
// connection broken and succeed by re-dialing, never interleave into the
// old stream. Simulated by closing the raw conn out from under the link.
func TestTCPSendPoisonedConnRedials(t *testing.T) {
	dict, ts := newDictWithTriples(4)
	tr, err := NewTCP(2, dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	if err := tr.Send(ctx, 0, 0, 1, ts[:2]); err != nil {
		t.Fatal(err)
	}
	// Break the socket without telling the link, as a network fault would.
	l := tr.links[0][1]
	l.mu.Lock()
	l.conn.Close()
	l.mu.Unlock()

	if err := tr.Send(ctx, 1, 0, 1, ts[2:]); err != nil {
		t.Fatalf("send on poisoned conn did not recover: %v", err)
	}
	in, err := tr.Recv(ctx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 2 {
		t.Fatalf("expected 2 triples after redial, got %d", len(in))
	}
	if tr.Redials() == 0 {
		t.Fatal("poisoned conn was reused instead of re-dialed")
	}
}

// BenchmarkTCPSendRecv measures the TCP codec and one frame exchange: per
// op, a k=2 mesh ships a 50k-triple frame each way, from Send until Recv
// returns the decoded triples.
func BenchmarkTCPSendRecv(b *testing.B) {
	dict, ts := newDictWithTriples(50_000)
	tr, err := NewTCP(2, dict)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		for from := 0; from < 2; from++ {
			if err := tr.Send(ctx, round, from, 1-from, ts); err != nil {
				b.Fatal(err)
			}
		}
		for to := 0; to < 2; to++ {
			in, err := tr.Recv(ctx, round, to)
			if err != nil {
				b.Fatal(err)
			}
			if len(in) != len(ts) {
				b.Fatalf("worker %d received %d triples, want %d", to, len(in), len(ts))
			}
		}
	}
}
