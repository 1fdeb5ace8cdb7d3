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
// three-worker mesh, as any process that reaches the listener could. On any
// input the loop must return once the stream ends, buffer only ErrMalformed
// or truncation errors, and deliver triples only to worker 1's inbox.
func FuzzTCPFrame(f *testing.F) {
	frame := func(hdr frameHeader, body string) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.BigEndian, hdr)
		b.WriteString(body)
		return b.Bytes()
	}
	payload := "<http://t/s> <http://t/p> \"v\" .\n"
	n := int32(len(payload))
	hello := frame(frameHeader{Type: typeHello, From: 0, To: 1, Seq: 1}, "")
	data := frame(frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: n}, payload)
	for _, seed := range [][]byte{
		bytes.Join([][]byte{hello, data}, nil),
		bytes.Join([][]byte{hello, data, data}, nil),
		make([]byte, 10), // torn header
		frame(frameHeader{Type: typeData, From: 0, To: 1, Seq: 1, Len: maxFrame}, "<"),
		frame(frameHeader{Type: typeData, From: 0, To: 2, Seq: 1, Len: n}, payload),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := &TCP{dict: rdf.NewDict(), k: 3,
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
