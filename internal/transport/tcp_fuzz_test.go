package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"powl/internal/rdf"
)

// FuzzTCPFrame feeds arbitrary bytes to the read loop of worker 1 in a
// three-worker mesh, as any process that reaches the listener could. The
// mesh's dictionary holds three terms, so a frame of IDs 1..3 delivers. On
// any input the loop must return once the stream ends, buffer only
// ErrMalformed or truncation errors, and deliver triples only to worker 1's
// inbox.
func FuzzTCPFrame(f *testing.F) {
	frame := func(hdr frameHeader, body []byte) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.BigEndian, hdr)
		b.Write(body)
		return b.Bytes()
	}
	data := func(to int32, body []byte) []byte {
		return frame(frameHeader{Type: typeData, From: 0, To: to, Seq: 1, Len: int32(len(body))}, body)
	}
	payload := idPayload(1, 2, 3)
	hello := frame(frameHeader{Type: typeHello, From: 0, To: 1, Seq: 1}, nil)
	for _, seed := range [][]byte{
		bytes.Join([][]byte{hello, data(1, payload)}, nil),
		bytes.Join([][]byte{hello, data(1, payload), data(1, payload)}, nil),
		make([]byte, 10), // torn header
		frame(frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: maxFrame}, []byte{1}),
		data(2, payload),                        // misrouted
		data(1, idPayload(1, 2, 0)),             // ID 0
		data(1, idPayload(1, 2, 4)),             // ID past the dictionary
		data(1, append(idPayload(1, 2), 0x80)),  // truncated uvarint
		data(1, idPayload(1, 2, 3, 3, 2, 1, 1)), // 3k+1 IDs
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		dict := rdf.NewDict()
		dict.InternIRI("http://t/s")
		dict.InternIRI("http://t/p")
		dict.InternLiteral(`"v"`)
		tr := &TCP{dict: dict, k: 3,
			inbox: map[boxKey][]rdf.Triple{}, seen: map[frameKey]struct{}{}}
		peer, conn := net.Pipe()
		go io.Copy(io.Discard, peer) // drain the acks
		go func() {
			peer.Write(in)
			peer.Close()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.readLoop(conn, 1)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("readLoop did not return on a %d-byte stream", len(in))
		}
		conn.Close()
		for _, err := range tr.errs {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("buffered error is neither malformed nor truncated: %v", err)
			}
		}
		for key := range tr.inbox {
			if key.to != 1 {
				t.Fatalf("triples delivered to worker %d's inbox", key.to)
			}
		}
	})
}
