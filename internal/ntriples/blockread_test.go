package ntriples

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"powl/internal/datagen"
	"powl/internal/rdf"
)

// referenceRead is ReadTriples as a loop of Reader.Next and Dict.Intern:
// the statement-at-a-time reader the block reader must match exactly.
func referenceRead(r io.Reader, dict *rdf.Dict) ([]rdf.Triple, error) {
	rd := NewReader(r)
	var ts []rdf.Triple
	for {
		st, err := rd.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return ts, err
		}
		ts = append(ts, rdf.Triple{S: dict.Intern(st.S), P: dict.Intern(st.P), O: dict.Intern(st.O)})
	}
}

// withBlocks runs f with ReadTriples cutting blocks at size bytes and
// GOMAXPROCS at procs.
func withBlocks(size, procs int, f func()) {
	defer func(old int) { blockSize = old }(blockSize)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	blockSize = size
	f()
}

func dictWith(pre []rdf.Term) *rdf.Dict {
	d := rdf.NewDict()
	for _, t := range pre {
		d.Intern(t)
	}
	return d
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReadTriples asserts that ReadTriples and ReadGraph over src, into a
// dictionary holding pre, match the reference: see checkReaders.
func checkReadTriples(t testing.TB, src string, pre []rdf.Term) {
	t.Helper()
	checkReaders(t, func() io.Reader { return strings.NewReader(src) }, pre, nil)
}

// checkReaders asserts, for blocks of one byte to the default size and
// GOMAXPROCS 1, 2 and 4, that ReadTriples over a reader from open, into a
// dictionary holding pre, returns the reference's triples and error and
// leaves the reference's dictionary; and that ReadGraph, into a graph
// holding base, leaves the log, the count, the dictionary and the error of
// the reference's triples added by AddAll.
func checkReaders(t testing.TB, open func() io.Reader, pre []rdf.Term, base []rdf.Triple) {
	t.Helper()
	refDict := dictWith(pre)
	want, wantErr := referenceRead(open(), refDict)
	refGraph := graphWith(base)
	wantAdded := refGraph.AddAll(want)
	wantLog := refGraph.TriplesSince(0)
	for _, size := range []int{1, 16, 97, blockSize} {
		for _, procs := range []int{1, 2, 4} {
			where := fmt.Sprintf("block %d B, GOMAXPROCS %d", size, procs)
			checkErr := func(reader string, err error) {
				t.Helper()
				if errText(err) != errText(wantErr) {
					t.Fatalf("%s: %s error %q, reference %q", where, reader, errText(err), errText(wantErr))
				}
				if errors.Is(err, bufio.ErrTooLong) != errors.Is(wantErr, bufio.ErrTooLong) {
					t.Fatalf("%s: %s error %v does not wrap what the reference's does", where, reader, err)
				}
			}
			dict := dictWith(pre)
			var got []rdf.Triple
			var err error
			withBlocks(size, procs, func() { got, err = ReadTriples(open(), dict) })
			checkErr("ReadTriples", err)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d triples differ from the reference's %d", where, len(got), len(want))
			}
			if !slices.Equal(dict.TermView(), refDict.TermView()) {
				t.Fatalf("%s: dictionary of %d terms differs from the reference's %d", where, dict.Len(), refDict.Len())
			}

			dict, g := dictWith(pre), graphWith(base)
			var added int
			withBlocks(size, procs, func() { added, err = ReadGraph(open(), dict, g) })
			checkErr("ReadGraph", err)
			if added != wantAdded {
				t.Fatalf("%s: ReadGraph added %d triples, the reference %d", where, added, wantAdded)
			}
			if !slices.Equal(g.TriplesSince(0), wantLog) {
				t.Fatalf("%s: ReadGraph's log of %d triples differs from the reference's %d", where, g.Len(), len(wantLog))
			}
			if !slices.Equal(dict.TermView(), refDict.TermView()) {
				t.Fatalf("%s: ReadGraph's dictionary of %d terms differs from the reference's %d", where, dict.Len(), refDict.Len())
			}
		}
	}
}

func graphWith(ts []rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph()
	g.AddAll(ts)
	return g
}

var (
	subjects = []string{"<http://x/s0>", "<http://x/s1>", "<http://x/s2>", "<http://x/s3>", "_:b0", "_:b1"}
	preds    = []string{"<http://x/p0>", "<http://x/p1>", "<http://x/p2>"}
	objects  = []string{
		"<http://x/s0>", "<http://x/o1>", "_:b1", `"plain"`, `"esc\"aped \\ value"`,
		`"tagged"@en`, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`, `"two words"`,
	}
	badLines = []string{
		`<http://x/s> <http://x/p> <http://x/o>`,
		`<http://x/s> <http://x/p> .`,
		`"lit" <http://x/p> <http://x/o> .`,
		`<http://x/s> _:b <http://x/o> .`,
		`<http://x/s> <http://x/p> "unterminated .`,
		`<http://x/new> <http://x/p> <http://x/o> . extra`,
		`_: <http://x/p> <http://x/o> .`,
	}
)

// randomInput writes n lines of statements over a small term pool (so
// terms and whole statements repeat), comments, blank and whitespace-only
// lines, tab separators and CRLF ends; with bad, one line at a random
// position is malformed.
func randomInput(rng *rand.Rand, n int, bad bool) string {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	badAt := -1
	if bad {
		badAt = rng.Intn(n)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch r := rng.Intn(12); {
		case i == badAt:
			b.WriteString(pick(badLines))
		case r == 0:
			b.WriteString("# comment <http://x/never> .")
		case r == 1:
			b.WriteString(pick([]string{"", "  ", "\t"}))
		default:
			sep := pick([]string{" ", "\t", "  "})
			fmt.Fprintf(&b, "%s%s%s%s%s%s.", pick([]string{"", " "}), pick(subjects), sep, pick(preds), sep, pick(objects)+sep)
		}
		if i < n-1 || rng.Intn(2) == 0 {
			b.WriteString(pick([]string{"\n", "\n", "\r\n"}))
		}
	}
	return b.String()
}

// TestReadTriplesMatchesReference: over random inputs, with and without a
// bad line, into empty and pre-populated dictionaries, the block reader
// returns the reference's triples, dictionary and error for every block
// size and GOMAXPROCS.
func TestReadTriplesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		src := randomInput(rng, 1+rng.Intn(80), i%2 == 1)
		var pre []rdf.Term
		if i%3 == 0 {
			pre = []rdf.Term{{Kind: rdf.IRI, Value: "http://x/unused"}, {Kind: rdf.IRI, Value: "http://x/p1"}, {Kind: rdf.Blank, Value: "b1"}}
		}
		checkReadTriples(t, src, pre)
	}
	checkReadTriples(t, "", nil)
	checkReadTriples(t, "\n\n# only comments\n", nil)
}

// TestReadGraphMatchesReference: over random inputs with and without a bad
// line, into a dictionary and a graph that already hold some of the terms
// and triples, and over inputs whose reader fails at a random byte, both
// readers match the reference for every block size and GOMAXPROCS, and no
// goroutine of theirs outlives the call.
func TestReadGraphMatchesReference(t *testing.T) {
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(37))
	pre := []rdf.Term{{Kind: rdf.IRI, Value: "http://x/s1"}, {Kind: rdf.IRI, Value: "http://x/p0"}, {Kind: rdf.Literal, Value: `"plain"`}}
	base := []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 1, P: 2, O: 1}}
	boom := errors.New("boom")
	for i := 0; i < 40; i++ {
		src := randomInput(rng, 1+rng.Intn(80), i%2 == 1)
		checkReaders(t, func() io.Reader { return strings.NewReader(src) }, pre, base)
		cut := rng.Intn(len(src) + 1)
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(src[:cut]), iotest.ErrReader(boom)) }
		checkReaders(t, failing, pre, base)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails t unless the goroutine count falls back to want
// within a few seconds: a goroutine that has signalled its end may not have
// exited yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadTriplesLineBound: a line of 1 MiB or more fails in both readers
// with bufio.ErrTooLong under the line's number, and one byte less is
// accepted, whether or not the line is the input's last.
func TestReadTriplesLineBound(t *testing.T) {
	good := "<http://x/s> <http://x/p> <http://x/o> .\n"
	line := func(n int) string { // one statement exactly n bytes long
		head, tail := `<http://x/s> <http://x/p> "`, `" .`
		return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
	}
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 3} {
		for _, last := range []bool{false, true} {
			src := good + "# comment\n" + line(n)
			if !last {
				src += "\n" + good
			}
			_, err := referenceRead(strings.NewReader(src), rdf.NewDict())
			if tooLong := n >= maxLine; errors.Is(err, bufio.ErrTooLong) != tooLong {
				t.Fatalf("%d-byte line (last %v): Next error %v", n, last, err)
			}
			if err != nil && !strings.HasPrefix(err.Error(), "ntriples: line 3: ") {
				t.Fatalf("%d-byte line: error %q does not name line 3", n, err)
			}
			checkReadTriples(t, src, nil)
		}
	}
}

// recordingReader serves src and keeps every buffer it is asked to fill:
// the reader's own block storage.
type recordingReader struct {
	src  []byte
	bufs [][]byte
}

func (r *recordingReader) Read(p []byte) (int, error) {
	r.bufs = append(r.bufs, p[:cap(p)])
	if len(r.src) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.src)
	r.src = r.src[n:]
	return n, nil
}

// TestReadTriplesOwnsItsTerms: no dictionary entry aliases the input or a
// block buffer — overwriting both after ReadTriples leaves every term as
// the reference read it.
func TestReadTriplesOwnsItsTerms(t *testing.T) {
	src := randomInput(rand.New(rand.NewSource(5)), 400, false)
	refDict := rdf.NewDict()
	if _, err := referenceRead(strings.NewReader(src), refDict); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{64, blockSize} {
		for _, procs := range []int{1, 2} {
			input := []byte(src)
			rd := &recordingReader{src: input}
			dict := rdf.NewDict()
			withBlocks(size, procs, func() {
				if _, err := ReadTriples(rd, dict); err != nil {
					t.Fatal(err)
				}
			})
			for _, b := range append(rd.bufs, input) {
				for i := range b {
					b[i] = 'X'
				}
			}
			if !slices.Equal(dict.TermView(), refDict.TermView()) {
				t.Fatalf("block %d B, GOMAXPROCS %d: terms changed with the buffers they were read from", size, procs)
			}
		}
	}
}

// lubmLines serializes LUBM with the given number of universities.
func lubmLines(univ int) []byte {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: univ, Seed: 1})
	var buf bytes.Buffer
	if err := WriteGraph(&buf, ds.Dict, ds.Graph); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// smallInput is 256 instance lines from the middle of LUBM-1: the size of
// a transport frame or a served insert.
func smallInput() []byte {
	lines := bytes.SplitAfter(lubmLines(1), []byte("\n"))
	mid := len(lines) / 2
	return bytes.Join(lines[mid:mid+256], nil)
}

// smallReadAllocs is what ReadTriples allocated for smallInput before the
// block reader (one string per line, the scanner, the triples' and the
// dictionary's growth); the block reader must not allocate more.
const smallReadAllocs = 289

// mallocs counts heap allocations per call of f across all goroutines
// (testing.AllocsPerRun would pin GOMAXPROCS to 1).
func mallocs(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// spawnedBy calls run up to runs times, stopping early once a goroutine
// created by fn has been seen alive: a sampler walks every goroutine's stack
// in a loop meanwhile. It can miss a goroutine that lives too briefly,
// never report one that did not exist.
func spawnedBy(fn string, runs int, run func()) bool {
	var found atomic.Bool
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1<<20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], []byte("created by "+fn+" in")) {
				found.Store(true)
			}
		}
	}()
	for i := 0; i < runs && !found.Load(); i++ {
		run()
	}
	close(stop)
	<-done
	return found.Load()
}

// TestReadTriplesSmallInline: an input of one block is parsed on the
// caller's goroutine at any GOMAXPROCS, and allocates no more than the
// statement-at-a-time reader did.
func TestReadTriplesSmallInline(t *testing.T) {
	src := smallInput()
	read := func() {
		if ts, err := ReadTriples(bytes.NewReader(src), rdf.NewDict()); err != nil || len(ts) != 256 {
			t.Errorf("read %d triples, err %v", len(ts), err)
		}
	}
	const reader = "powl/internal/ntriples.readBlocks"
	withBlocks(blockSize, 4, func() {
		if spawnedBy(reader, 50, read) {
			t.Error("a one-block input was parsed on a goroutine of its own")
		}
		if n := mallocs(50, read); n > smallReadAllocs {
			t.Errorf("256-triple read: %d allocs, the statement-at-a-time reader took %d", n, smallReadAllocs)
		}
	})
	// The sampler does see the goroutines of an input of several blocks.
	withBlocks(len(src)/4, 4, func() {
		if !spawnedBy(reader, 5000, read) {
			t.Error("no goroutine seen parsing a four-block input")
		}
	})
}

// TestWriteGraphMatchesTermString: WriteGraph's output is byte for byte
// the (S, P, O)-sorted live triples rendered through Term.String, and a
// Writer resolves IDs interned after its first write.
func TestWriteGraphMatchesTermString(t *testing.T) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(9))
	all := append(append(slices.Clone(subjects), preds...), objects...)
	ids := make([]rdf.ID, len(all))
	for i, s := range all {
		term, err := ParseTerm(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = dict.Intern(term)
	}
	for i := 0; i < 500; i++ {
		g.Add(rdf.Triple{
			S: ids[rng.Intn(len(subjects))],
			P: ids[len(subjects)+rng.Intn(len(preds))],
			O: ids[rng.Intn(len(ids))],
		})
	}
	g.Delete(slices.Clone(g.TriplesSince(0)[:20]))
	var want strings.Builder
	ref := g.Triples()
	slices.SortFunc(ref, func(a, b rdf.Triple) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	for _, tr := range ref {
		fmt.Fprintf(&want, "%s %s %s .\n", dict.Term(tr.S), dict.Term(tr.P), dict.Term(tr.O))
	}
	var got bytes.Buffer
	if err := WriteGraph(&got, dict, g); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteGraph output differs from Term.String rendering:\n%s\nwant:\n%s", got.String(), want.String())
	}

	var buf bytes.Buffer
	w := NewWriter(&buf, dict)
	if err := w.Write(ref[0]); err != nil {
		t.Fatal(err)
	}
	late := dict.InternLiteral(`"interned after the first write"`)
	if err := w.Write(rdf.Triple{S: ref[0].S, P: ref[0].P, O: late}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s %s %s .\n", dict.Term(ref[0].S), dict.Term(ref[0].P), `"interned after the first write"`); !strings.HasSuffix(buf.String(), want) {
		t.Fatalf("late-interned term written as %q", buf.String())
	}
}

// TestWriteGraphMatchesWriter: at GOMAXPROCS 1, 2 and 4, WriteGraph writes
// byte for byte what the one-line-at-a-time Writer writes for the sorted
// live triples — for graphs of none, one, a chunk less one, a chunk, a
// chunk and one and many chunks of triples over IRIs, blank nodes and
// plain, typed and tagged literals, with tombstoned triples — and a failing
// io.Writer's error comes back with no formatter left running.
func TestWriteGraphMatchesWriter(t *testing.T) {
	before := runtime.NumGoroutine()
	dict := rdf.NewDict()
	var terms []rdf.ID
	for _, s := range append(append(slices.Clone(subjects), preds...), objects...) {
		term, err := ParseTerm(s)
		if err != nil {
			t.Fatal(err)
		}
		terms = append(terms, dict.Intern(term))
	}
	rng := rand.New(rand.NewSource(41))
	boom := errors.New("boom")
	for _, n := range []int{0, 1, writeChunk - 1, writeChunk, writeChunk + 1, 5*writeChunk + 7} {
		// n live triples, plus some deleted again, over subjects numbered
		// past the term pool so that the triples are distinct.
		g := rdf.NewGraph()
		for g.Len() < n+n/10 {
			s := dict.InternIRI(fmt.Sprintf("http://x/n%d", rng.Intn(2*n+1)))
			if rng.Intn(3) == 0 {
				s = dict.InternBlank(fmt.Sprintf("b%d", rng.Intn(2*n+1)))
			}
			g.Add(rdf.Triple{S: s, P: terms[len(subjects)+rng.Intn(len(preds))], O: terms[rng.Intn(len(terms))]})
		}
		log := g.TriplesSince(0)
		dead := slices.Clone(log[:len(log)-n])
		rng.Shuffle(len(dead), func(i, j int) { dead[i], dead[j] = dead[j], dead[i] })
		g.Delete(dead)
		if g.LiveLen() != n {
			t.Fatalf("built %d live triples, want %d", g.LiveLen(), n)
		}
		var want bytes.Buffer
		w := NewWriter(&want, dict)
		if err := w.WriteAll(g.SortedTriples()); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			withBlocks(blockSize, procs, func() {
				var got bytes.Buffer
				if err := WriteGraph(&got, dict, g); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%d triples, GOMAXPROCS %d: WriteGraph wrote %d bytes that differ from the Writer's %d", n, procs, got.Len(), want.Len())
				}
				// The output is written a chunk at a time.
				for _, after := range []int{0, 2} {
					fails := (n+writeChunk-1)/writeChunk > after
					if err := WriteGraph(&failingWriter{after: after, err: boom}, dict, g); errors.Is(err, boom) != fails || !fails && err != nil {
						t.Fatalf("%d triples, GOMAXPROCS %d: writer failing after %d writes: WriteGraph returned %v", n, procs, after, err)
					}
				}
			})
		}
	}
	waitGoroutines(t, before)
}

// failingWriter accepts after writes, then fails every one with err.
type failingWriter struct {
	after int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after == 0 {
		return 0, w.err
	}
	w.after--
	return len(p), nil
}

var sinkTriples []rdf.Triple

func BenchmarkReadTriples(b *testing.B) {
	src := lubmLines(20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := ReadTriples(bytes.NewReader(src), rdf.NewDict())
		if err != nil {
			b.Fatal(err)
		}
		sinkTriples = ts
	}
}

func BenchmarkReadTriplesSmall(b *testing.B) {
	src := smallInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := ReadTriples(bytes.NewReader(src), rdf.NewDict())
		if err != nil {
			b.Fatal(err)
		}
		sinkTriples = ts
	}
}

var sinkAdded int

// benchReadGraph loads LUBM with univ universities into a fresh graph per
// iteration: the batch pipeline's first step.
func benchReadGraph(b *testing.B, univ int) {
	src := lubmLines(univ)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ReadGraph(bytes.NewReader(src), rdf.NewDict(), rdf.NewGraph())
		if err != nil {
			b.Fatal(err)
		}
		sinkAdded = n
	}
}

func BenchmarkReadGraph(b *testing.B) { benchReadGraph(b, 20) }

// BenchmarkReadGraphLUBM100 is the batch workloads' input size, where the
// reader's stages are not noise; CI does not gate it.
func BenchmarkReadGraphLUBM100(b *testing.B) { benchReadGraph(b, 100) }

func BenchmarkWriteGraph(b *testing.B) { benchWriteGraph(b, 20) }

// BenchmarkWriteGraphLUBM100 writes the batch workloads' input graph; CI
// does not gate it.
func BenchmarkWriteGraphLUBM100(b *testing.B) { benchWriteGraph(b, 100) }

func benchWriteGraph(b *testing.B, univ int) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: univ, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteGraph(io.Discard, ds.Dict, ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Graph.Len()), "triples/op")
}
