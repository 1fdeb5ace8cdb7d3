// Package ntriples implements a streaming reader and writer for the
// N-Triples serialization of RDF graphs. It is the wire format used by the
// shared-filesystem and TCP transports and by the cmd tools.
package ntriples

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"powl/internal/rdf"
)

// Statement is one parsed subject–predicate–object line.
type Statement struct {
	S, P, O rdf.Term
}

// Reader parses N-Triples statements from an input stream.
type Reader struct {
	scan *bufio.Scanner
	line int
}

// maxLine bounds an input line, its '\n' not counted, for both readers: a
// line of maxLine bytes or more fails with bufio.ErrTooLong, so hostile
// input cannot make either reader buffer without limit.
const maxLine = 1 << 20

// NewReader returns a Reader over r. Lines must be shorter than 1 MiB.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &Reader{scan: sc}
}

// Next returns the next statement, or io.EOF when the input is exhausted.
// Blank lines and #-comments are skipped. Malformed and overlong lines
// yield an error naming the line number.
func (r *Reader) Next() (Statement, error) {
	for r.scan.Scan() {
		r.line++
		line := strings.TrimSpace(r.scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st, err := parseLine(line)
		if err != nil {
			return Statement{}, fmt.Errorf("ntriples: line %d: %w", r.line, err)
		}
		return st, nil
	}
	if err := r.scan.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Statement{}, fmt.Errorf("ntriples: line %d: %w", r.line+1, err)
		}
		return Statement{}, err
	}
	return Statement{}, io.EOF
}

func parseLine(line string) (Statement, error) {
	p := &lineParser{s: line}
	subj, err := p.term()
	if err != nil {
		return Statement{}, fmt.Errorf("subject: %w", err)
	}
	if subj.Kind == rdf.Literal {
		return Statement{}, fmt.Errorf("subject must not be a literal")
	}
	pred, err := p.term()
	if err != nil {
		return Statement{}, fmt.Errorf("predicate: %w", err)
	}
	if pred.Kind != rdf.IRI {
		return Statement{}, fmt.Errorf("predicate must be an IRI")
	}
	obj, err := p.term()
	if err != nil {
		return Statement{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Statement{}, fmt.Errorf("missing terminating '.'")
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return Statement{}, fmt.Errorf("trailing garbage after '.'")
	}
	return Statement{S: subj, P: pred, O: obj}, nil
}

type lineParser struct {
	s string
	i int
}

func (p *lineParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *lineParser) term() (rdf.Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return rdf.Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
	}
}

func (p *lineParser) iri() (rdf.Term, error) {
	if p.i >= len(p.s) || p.s[p.i] != '<' {
		return rdf.Term{}, fmt.Errorf("expected '<'")
	}
	p.i++ // consume '<'
	end := strings.IndexByte(p.s[p.i:], '>')
	if end < 0 {
		return rdf.Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.s[p.i : p.i+end]
	p.i += end + 1
	if iri == "" {
		return rdf.Term{}, fmt.Errorf("empty IRI")
	}
	return rdf.Term{Kind: rdf.IRI, Value: iri}, nil
}

func (p *lineParser) blank() (rdf.Term, error) {
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return rdf.Term{}, fmt.Errorf("malformed blank node")
	}
	p.i += 2
	start := p.i
	for p.i < len(p.s) && !isTermEnd(p.s[p.i]) {
		p.i++
	}
	if p.i == start {
		return rdf.Term{}, fmt.Errorf("empty blank node label")
	}
	return rdf.Term{Kind: rdf.Blank, Value: p.s[start:p.i]}, nil
}

func isTermEnd(c byte) bool { return c == ' ' || c == '\t' }

// literal parses a quoted literal with optional @lang or ^^<datatype>
// suffix, preserving the full lexical form in the Term value.
func (p *lineParser) literal() (rdf.Term, error) {
	start := p.i
	p.i++ // consume opening quote
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '\\':
			p.i += 2
			if p.i > len(p.s) {
				return rdf.Term{}, fmt.Errorf("dangling escape in literal")
			}
			continue
		case '"':
			p.i++
			// Optional suffix.
			if p.i < len(p.s) && p.s[p.i] == '@' {
				for p.i < len(p.s) && !isTermEnd(p.s[p.i]) {
					p.i++
				}
			} else if p.i+1 < len(p.s) && p.s[p.i] == '^' && p.s[p.i+1] == '^' {
				p.i += 2
				if _, err := p.iri(); err != nil {
					return rdf.Term{}, fmt.Errorf("datatype: %w", err)
				}
			}
			return rdf.Term{Kind: rdf.Literal, Value: p.s[start:p.i]}, nil
		default:
			p.i++
		}
	}
	return rdf.Term{}, fmt.Errorf("unterminated literal")
}

// ParseTerm parses one term in N-Triples surface syntax (<iri>, _:label, or
// a quoted literal), the inverse of rdf.Term.String.
func ParseTerm(s string) (rdf.Term, error) {
	p := &lineParser{s: s}
	t, err := p.term()
	if err != nil {
		return rdf.Term{}, err
	}
	p.skipSpace()
	if p.i != len(s) {
		return rdf.Term{}, fmt.Errorf("trailing garbage after term")
	}
	return t, nil
}

// ReadTriples parses all statements from r, interning terms into dict, and
// returns the triples in input order, duplicates included. On error it
// returns the triples before the bad line, and dict holds no term first
// seen after them. Dictionary entries never alias the input or a parse
// buffer. It is the reader pipeline (readBlocks) with a sink that appends
// each block's triples to the result, so the IDs, the triple order and the
// errors are exactly those of Reader.Next plus Dict.Intern per statement,
// for any block size and GOMAXPROCS.
func ReadTriples(r io.Reader, dict *rdf.Dict) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := readBlocks(r, dict, func(b *block) { ts = append(ts, b.out...) })
	return ts, err
}

// ReadGraph parses all statements from r, interning terms into dict and
// adding the triples to g. It returns the number of triples added (duplicates
// are not double-counted). It is the reader pipeline with g.AddAll as the
// sink: each block's triples are added, in input order, as soon as the
// block is merged, so parsing later blocks overlaps the inserts, and g's
// log order, the count and the error are those of ReadTriples + AddAll. g
// has no other writer while the call runs: the sink runs on the caller's
// goroutine. When r tells how many bytes it holds (a Len method, as
// bytes.Reader and strings.Reader have), g is reserved once, at the first
// block, for the input's triples at that block's triples per byte, instead
// of regrowing block after block.
func ReadGraph(r io.Reader, dict *rdf.Dict, g *rdf.Graph) (int, error) {
	size := -1 // the input's bytes, when r tells
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	n := 0
	err := readBlocks(r, dict, func(b *block) {
		if size > 0 && len(b.buf) > 0 {
			g.Grow(len(b.out) * size / len(b.buf))
		}
		size = -1
		n += g.AddAll(b.out)
	})
	return n, err
}

// readBlocks is the reader pipeline. The input is cut into newline-aligned
// blocks, each block is parsed into a private first-seen term table and
// triples of block-local IDs, and the merge — one stage, in input order —
// interns each block's first-seen terms under one dictionary lock and
// remaps its triples. A term new to the dictionary is first seen in the
// earliest block holding it, so the IDs are those of a statement-at-a-time
// read. sink gets each merged block, its triples in b.out, in input order
// and on the caller's goroutine; the block that holds the first bad line
// is the last one it gets, with the triples before that line.
//
// An input of one block, or any input at GOMAXPROCS 1, is read by the
// caller's goroutine alone. Otherwise each stage runs at once on its own
// goroutines: one splitter reads blocks, GOMAXPROCS parsers parse them,
// one merger merges them as they finish, in order, and the caller's sink
// consumes merged ones. At most GOMAXPROCS+2 blocks exist, recycled from
// the sink back to the splitter, so memory is bounded by the block count,
// not by the input. Every goroutine has exited when readBlocks returns.
func readBlocks(r io.Reader, dict *rdf.Dict, sink func(*block)) error {
	in := splitter{r: r}
	m := merger{dict: dict}
	b := newBlock()
	if !in.next(b) {
		return in.end()
	}
	procs := runtime.GOMAXPROCS(0)
	if in.err != nil || procs == 1 {
		for {
			b.parse()
			err := m.merge(b)
			sink(b)
			if err != nil {
				return err
			}
			if !in.next(b) {
				return in.end()
			}
		}
	}

	// No send below blocks: a block is in each channel at most once, and
	// nblocks blocks exist. Only the splitter waits, for a free block, and
	// it gives up once the merger has met an error and closed stop.
	nblocks := procs + 2
	stop := make(chan struct{})
	free := make(chan *block, nblocks)   // consumed blocks, back to the splitter
	todo := make(chan *block, nblocks)   // split blocks, to the parsers
	split := make(chan *block, nblocks)  // split blocks in input order, to the merger
	merged := make(chan *block, nblocks) // merged blocks in input order, to the sink
	var (
		wg       sync.WaitGroup
		mergeErr error
	)
	wg.Add(procs + 2)
	go func() {
		defer wg.Done()
		defer close(todo)
		defer close(split)
		for made := 1; ; {
			todo <- b
			split <- b
			if made < nblocks {
				b = newBlock()
				made++
			} else {
				select {
				case b = <-free:
				case <-stop:
					return
				}
			}
			if !in.next(b) {
				return
			}
		}
	}()
	for range procs {
		go func() {
			defer wg.Done()
			for b := range todo {
				select {
				case <-stop: // the merger is gone: nothing reads this block
				default:
					b.parse()
				}
				b.parsed <- struct{}{}
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(merged)
		for b := range split {
			<-b.parsed
			err := m.merge(b)
			merged <- b
			if err != nil {
				mergeErr = err
				close(stop)
				return
			}
		}
	}()
	for b := range merged {
		sink(b)
		free <- b
	}
	wg.Wait()
	if mergeErr != nil {
		return mergeErr
	}
	return in.end()
}

// merger is the pipeline's in-order stage: it interns each block's
// first-seen terms, remaps the block's triples into b.out, and counts the
// lines of the blocks merged so far, for error messages.
type merger struct {
	dict *rdf.Dict
	ids  []rdf.ID
	line int
}

// merge interns and remaps b, whose parse has finished, and returns the
// error of b's bad line, if it has one, under the line's global number.
func (m *merger) merge(b *block) error {
	m.ids = m.dict.InternAll(b.terms, m.ids[:0])
	b.out = slices.Grow(b.out[:0], len(b.ts))
	for _, t := range b.ts {
		b.out = append(b.out, rdf.Triple{S: m.ids[t.s], P: m.ids[t.p], O: m.ids[t.o]})
	}
	if b.err != nil {
		return fmt.Errorf("ntriples: line %d: %w", m.line+b.lines, b.err)
	}
	m.line += b.lines
	return nil
}

// blockSize is the input size past which the reader starts a new block at
// the next line end. Tests shrink it to cut inputs into blocks of a few
// lines.
var blockSize = 1 << 20

// splitter cuts an input into blocks of whole lines.
type splitter struct {
	r     io.Reader
	carry []byte // the start of the line the last block cut off
	// err is sticky: io.EOF, the read error, or bufio.ErrTooLong once one
	// line alone has reached maxLine (the block holding it reports that).
	err error
}

// end returns what the input's end means for the reader: nil at EOF, else
// the read error.
func (s *splitter) end() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// next fills b.buf, reusing its storage, with the next block: the carried
// line start plus input up to the last line end within blockSize bytes —
// or within the first line end, for a line longer than that — or up to
// the end of the input. It reports false when no input is left.
func (s *splitter) next(b *block) bool {
	buf := append(b.buf[:0], s.carry...)
	s.carry = s.carry[:0]
	searched := 0 // buf[:searched] holds no '\n'
	for limit := blockSize; ; limit = searched + blockSize {
		buf = s.fill(buf, limit)
		b.buf = buf
		if s.err != nil {
			return len(buf) > 0
		}
		if i := bytes.LastIndexByte(buf[searched:], '\n'); i >= 0 {
			cut := searched + i + 1
			s.carry = append(s.carry, buf[cut:]...)
			b.buf = buf[:cut]
			return true
		}
		searched = len(buf)
		if searched >= maxLine {
			s.err = bufio.ErrTooLong
			return true
		}
	}
}

// fill reads into buf until it holds limit bytes or the input ends. A
// buffer starts at 64 KiB, so an input smaller than that never gets a
// block-sized one, and then grows straight to limit — or doubles, for a
// line longer than a block. Like bufio.Scanner it gives up on a reader that
// keeps returning nothing.
func (s *splitter) fill(buf []byte, limit int) []byte {
	for empty := 0; len(buf) < limit && s.err == nil; {
		if len(buf) == cap(buf) {
			grow := max(limit-len(buf), len(buf))
			if cap(buf) == 0 {
				grow = min(grow, 64<<10)
			}
			buf = slices.Grow(buf, grow)
		}
		n, err := s.r.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+n]
		switch {
		case err != nil:
			s.err = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				s.err = io.ErrNoProgress
			}
		}
	}
	return buf
}

// block is one newline-aligned piece of the input, its parse and its
// merge: the terms in first-seen order, the triples as indexes into them,
// and the line count — or, when a line failed, the lines up to and
// including it and the cause — then the triples remapped to dictionary IDs.
// A block is reused for block after block, so none of this is allocated per
// block once the first few have sized it.
type block struct {
	buf    []byte
	local  map[rdf.Term]uint32 // term → index into terms
	terms  []rdf.Term
	ts     []localTriple
	lines  int
	err    error
	out    []rdf.Triple
	parsed chan struct{} // a parser's signal to the merger that ts is ready
}

func newBlock() *block { return &block{parsed: make(chan struct{}, 1)} }

type localTriple struct{ s, p, o uint32 }

// parse parses b.buf over a zero-copy string view: every term it records
// aliases buf, which is why the merge must intern them — copying the new
// ones — before buf is refilled. The tables start sized for LUBM's and
// UOBM's blocks (about 140 bytes a line and 2,400 distinct terms a MiB),
// since every block in flight holds them; a block that needs more grows
// them once and keeps them.
func (b *block) parse() {
	b.terms = slices.Grow(b.terms[:0], len(b.buf)/256)
	b.ts = slices.Grow(b.ts[:0], len(b.buf)/128)
	b.lines, b.err = 0, nil
	if b.local == nil {
		b.local = make(map[rdf.Term]uint32, len(b.buf)/256)
	} else {
		clear(b.local)
	}
	s := unsafe.String(unsafe.SliceData(b.buf), len(b.buf))
	for s != "" {
		raw := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			raw, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		b.lines++
		if len(raw) >= maxLine {
			b.err = bufio.ErrTooLong
			return
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		st, err := parseLine(line)
		if err != nil {
			b.err = err
			return
		}
		// Sorted input repeats a subject for several lines in a row; the
		// previous line's subject is matched without hashing it again.
		var subj uint32
		if n := len(b.ts); n > 0 && st.S == b.terms[b.ts[n-1].s] {
			subj = b.ts[n-1].s
		} else {
			subj = b.id(st.S)
		}
		b.ts = append(b.ts, localTriple{subj, b.id(st.P), b.id(st.O)})
	}
}

// id returns t's index in the block's first-seen table, adding it on first
// sight.
func (b *block) id(t rdf.Term) uint32 {
	id, ok := b.local[t]
	if !ok {
		id = uint32(len(b.terms))
		b.local[t] = id
		b.terms = append(b.terms, t)
	}
	return id
}

// Writer serializes triples as N-Triples lines.
type Writer struct {
	w     *bufio.Writer
	terms termTable
	line  []byte // the line being formatted, reused
}

// NewWriter returns a Writer that resolves IDs through dict.
func NewWriter(w io.Writer, dict *rdf.Dict) *Writer {
	return &Writer{w: bufio.NewWriter(w), terms: termTable{dict: dict}}
}

// Write emits one triple as a terminated N-Triples line. The buffer's write
// error is sticky, so the last write reports any earlier one.
func (w *Writer) Write(t rdf.Triple) error {
	w.line = w.terms.appendTriple(w.line[:0], t)
	_, err := w.w.Write(w.line)
	return err
}

// WriteAll emits every triple in ts.
func (w *Writer) WriteAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// termTable resolves IDs through a view of the dictionary, without a lock.
// A view is one goroutine's: each formatter of WriteGraph copies the table.
type termTable struct {
	dict *rdf.Dict
	view []rdf.Term // dict's term view, renewed when an ID lies beyond it
}

// term returns the term with ID id; an unknown ID panics in Dict.Term, as it
// always has.
func (tt *termTable) term(id rdf.ID) rdf.Term {
	if int(id) > len(tt.view) {
		tt.view = tt.dict.TermView()
	}
	if id == rdf.Wildcard || int(id) > len(tt.view) {
		return tt.dict.Term(id)
	}
	return tt.view[id-1]
}

// appendTriple appends t as a terminated N-Triples line, each term as
// rdf.Term.String renders it.
func (tt *termTable) appendTriple(b []byte, t rdf.Triple) []byte {
	b = appendTerm(b, tt.term(t.S))
	b = append(b, ' ')
	b = appendTerm(b, tt.term(t.P))
	b = append(b, ' ')
	b = appendTerm(b, tt.term(t.O))
	return append(b, " .\n"...)
}

func appendTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, '<')
		b = append(b, t.Value...)
		return append(b, '>')
	case rdf.Blank:
		b = append(b, "_:"...)
		return append(b, t.Value...)
	default:
		return append(b, t.Value...)
	}
}

// writeChunk is the number of triples WriteGraph formats as one piece, and
// lineBytes the room per triple a piece's buffer starts with: LUBM's and
// UOBM's lines average under 140 bytes, and a buffer a longer piece
// outgrows is grown once and kept.
const (
	writeChunk = 2048
	lineBytes  = 192
	chunkBytes = writeChunk * lineBytes
)

// WriteGraph serializes g's live triples to w in (S, P, O) order, byte for
// byte what a Writer writes for g.SortedTriples. The sorted triples are cut
// into chunks of writeChunk; up to GOMAXPROCS goroutines format chunks into
// a ring of buffers while the caller writes the formatted ones to w in
// order, so memory is bounded by the formatter count times the chunk size,
// not by the output. A graph of one chunk, or any graph at GOMAXPROCS 1, is
// formatted and written by the caller alone. A write error stops the
// formatters and is returned once they have exited.
func WriteGraph(w io.Writer, dict *rdf.Dict, g *rdf.Graph) error {
	ts := g.SortedTriples()
	terms := termTable{dict: dict, view: dict.TermView()}
	chunks := (len(ts) + writeChunk - 1) / writeChunk
	procs := min(runtime.GOMAXPROCS(0), chunks)
	if procs <= 1 {
		buf := make([]byte, 0, min(len(ts), writeChunk)*lineBytes)
		for c := range chunks {
			buf = terms.appendChunk(buf[:0], ts, c)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	gw := &graphWriter{ts: ts, terms: terms, chunks: chunks, slots: make([]slot, procs+1)}
	gw.cond.L = &gw.mu
	slab := make([]byte, len(gw.slots)*chunkBytes)
	for i := range gw.slots {
		gw.slots[i] = slot{buf: slab[i*chunkBytes : i*chunkBytes : (i+1)*chunkBytes], chunk: -1}
	}
	// One func value for every goroutine: a go statement per method call
	// would allocate a closure per formatter.
	format := gw.format
	gw.wg.Add(procs)
	for range procs {
		go format()
	}
	err := gw.writeTo(w)
	gw.wg.Wait()
	return err
}

// appendChunk appends chunk c of ts as N-Triples lines.
func (tt *termTable) appendChunk(b []byte, ts []rdf.Triple, c int) []byte {
	for _, t := range ts[c*writeChunk : min(len(ts), (c+1)*writeChunk)] {
		b = tt.appendTriple(b, t)
	}
	return b
}

// graphWriter is one WriteGraph call with formatters. Chunk c is formatted
// into slot c % len(slots), and only once chunk c - len(slots) has been
// written, so a formatter never touches the buffer being written. Each
// call allocates the same handful of objects whatever the formatter count:
// the slots share one byte slab, and synchronization is one mutex and one
// condition variable, not a channel per slot.
type graphWriter struct {
	ts     []rdf.Triple
	terms  termTable
	chunks int
	slots  []slot
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    sync.Cond // on mu: a chunk was formatted or written, or writing failed
	claimed int       // chunks handed to a formatter
	written int       // chunks written to the output
	failed  bool      // a write failed: format no more
}

// slot is one buffer of the ring and the chunk it holds once formatted.
type slot struct {
	buf   []byte
	chunk int
}

// format is one formatter: it claims chunks in order until none is left or
// writing has failed, waits for the chunk's slot to be written, and formats
// the chunk into it outside the lock.
func (gw *graphWriter) format() {
	defer gw.wg.Done()
	terms := gw.terms // this goroutine's own view
	gw.mu.Lock()
	defer gw.mu.Unlock()
	for !gw.failed && gw.claimed < gw.chunks {
		c := gw.claimed
		gw.claimed++
		for c >= gw.written+len(gw.slots) && !gw.failed {
			gw.cond.Wait()
		}
		if gw.failed {
			return
		}
		s := &gw.slots[c%len(gw.slots)]
		gw.mu.Unlock()
		s.buf = terms.appendChunk(s.buf[:0], gw.ts, c)
		gw.mu.Lock()
		s.chunk = c
		gw.cond.Broadcast()
	}
}

// writeTo writes the chunks to w in order as they are formatted, and stops
// the formatters at the first write error.
func (gw *graphWriter) writeTo(w io.Writer) error {
	for c := range gw.chunks {
		s := &gw.slots[c%len(gw.slots)]
		gw.mu.Lock()
		for s.chunk != c {
			gw.cond.Wait()
		}
		gw.mu.Unlock()
		_, err := w.Write(s.buf)
		gw.mu.Lock()
		gw.written++
		gw.failed = err != nil
		gw.cond.Broadcast()
		gw.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
