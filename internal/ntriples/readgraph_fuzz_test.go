package ntriples_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"powl/internal/ntriples"
	"powl/internal/rdf"
	"powl/internal/transport"
)

// FuzzReadGraph drives ReadGraph the way a transport's receive path does:
// an arbitrary payload is parsed into a fresh graph, and a parse failure is
// wrapped as transport.ErrMalformed. The properties under test are the ones
// the reconnecting TCP mesh depends on: no panic, termination on any input,
// and the malformed-payload class being fatal — never retried — under
// transport.DefaultClassify (re-dialing cannot repair corrupt bytes). The
// block reader underneath must also agree with the statement-at-a-time
// reader — triples, dictionary and error — at every block size and
// GOMAXPROCS, into a dictionary that already holds some of the terms.
func FuzzReadGraph(f *testing.F) {
	seeds := []string{
		"<http://x/s> <http://x/p> <http://x/o> .",
		"<http://x/s> <http://x/p> <http://x/o>",      // missing dot
		"<http://x/s> <http://x/p> .",                 // missing object
		"\x00\xff\xfe frame garbage",                  // binary noise
		"<http://x/s> <http://x/p> \"unterminated",    // torn literal
		"<http://x/s>\n<http://x/p>\n<http://x/o> .",  // stray newlines
		strings.Repeat("<a> <b> <c> .\n", 10) + "<d>", // good prefix, torn tail
		"",
		"# c\r\n\n<a> <b> \"e\\\"s\\\\c\"@en .\r\n\t_:x\t<b>\t<a> .\n<a> <b> \"e\\\"s\\\\c\"@en .\n<a> <b> c .\n<z> <b> <a> .",
	}
	pre := []rdf.Term{{Kind: rdf.IRI, Value: "b"}, {Kind: rdf.IRI, Value: "http://x/p"}}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload string) {
		done := make(chan struct{})
		var n int
		var err error
		go func() {
			defer close(done)
			dict := rdf.NewDict()
			g := rdf.NewGraph()
			n, err = ntriples.ReadGraph(strings.NewReader(payload), dict, g)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("ReadGraph looped on %d-byte payload", len(payload))
		}
		ntriples.CheckReadTriples(t, payload, pre)
		if err == nil {
			if n < 0 {
				t.Fatalf("accepted payload reported %d triples", n)
			}
			return
		}
		// Wrap as the TCP readLoop does and check the classification:
		// a malformed frame must be fatal, not retried.
		framed := fmt.Errorf("transport/tcp: %w: %v", transport.ErrMalformed, err)
		if transport.DefaultClassify(framed) {
			t.Fatalf("malformed payload classified transient: %v", framed)
		}
	})
}
