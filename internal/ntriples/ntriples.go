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
// buffer.
//
// The input is cut into newline-aligned blocks of about blockSize bytes,
// and up to GOMAXPROCS blocks at a time are parsed, each on its own
// goroutine, into a private first-seen term table and triples of
// block-local IDs. The caller merges the blocks in input order: it interns
// each block's first-seen terms under one dictionary lock and remaps the
// block's triples. A term new to the dictionary is first seen in the
// earliest block holding it, so the IDs, the triple order and the errors
// are exactly those of Reader.Next plus Dict.Intern per statement, for any
// block size and GOMAXPROCS. An input of one block is parsed on the
// caller's goroutine.
func ReadTriples(r io.Reader, dict *rdf.Dict) ([]rdf.Triple, error) {
	in := splitter{r: r}
	procs := runtime.GOMAXPROCS(0)
	var (
		blocks []block // grown to at most procs, reused wave to wave
		ts     []rdf.Triple
		ids    []rdf.ID
		line   int
	)
	for {
		n := 0
		for ; n < procs; n++ {
			if n == len(blocks) {
				blocks = append(blocks, block{})
			}
			if !in.next(&blocks[n]) {
				break
			}
		}
		if n == 0 {
			break
		}
		wave := blocks[:n]
		if n == 1 {
			wave[0].parse()
		} else {
			var wg sync.WaitGroup
			for i := range wave {
				wg.Add(1)
				go func(b *block) {
					defer wg.Done()
					b.parse()
				}(&wave[i])
			}
			wg.Wait()
		}
		for i := range wave {
			b := &wave[i]
			ids = dict.InternAll(b.terms, ids[:0])
			ts = slices.Grow(ts, len(b.ts))
			for _, t := range b.ts {
				ts = append(ts, rdf.Triple{S: ids[t.s], P: ids[t.p], O: ids[t.o]})
			}
			if b.err != nil {
				return ts, fmt.Errorf("ntriples: line %d: %w", line+b.lines, b.err)
			}
			line += b.lines
		}
	}
	if in.err != io.EOF {
		return ts, in.err
	}
	return ts, nil
}

// blockSize is the input size past which ReadTriples starts a new block at
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

// block is one newline-aligned piece of the input and its parse: the terms
// in first-seen order, the triples as indexes into them, and the line count
// — or, when a line failed, the lines up to and including it and the cause.
// A block is reused from wave to wave, so none of this is allocated per
// block once the first wave has sized it.
type block struct {
	buf   []byte
	local map[rdf.Term]uint32 // term → index into terms
	terms []rdf.Term
	ts    []localTriple
	lines int
	err   error
}

type localTriple struct{ s, p, o uint32 }

// parse parses b.buf over a zero-copy string view: every term it records
// aliases buf, which is why the merge must intern them — copying the new
// ones — before buf is refilled.
func (b *block) parse() {
	b.terms = slices.Grow(b.terms[:0], len(b.buf)/64)
	b.ts = slices.Grow(b.ts[:0], len(b.buf)/64)
	b.lines, b.err = 0, nil
	if b.local == nil {
		b.local = make(map[rdf.Term]uint32, len(b.buf)/64)
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

// ReadGraph parses all statements from r, interning terms into dict and
// adding the triples to g. It returns the number of triples added (duplicates
// are not double-counted).
func ReadGraph(r io.Reader, dict *rdf.Dict, g *rdf.Graph) (int, error) {
	ts, err := ReadTriples(r, dict)
	return g.AddAll(ts), err
}

// Writer serializes triples as N-Triples lines.
type Writer struct {
	w     *bufio.Writer
	dict  *rdf.Dict
	terms []rdf.Term // dict's term view, renewed when an ID lies beyond it
}

// NewWriter returns a Writer that resolves IDs through dict.
func NewWriter(w io.Writer, dict *rdf.Dict) *Writer {
	return &Writer{w: bufio.NewWriter(w), dict: dict}
}

// Write emits one triple as a terminated N-Triples line, appending the term
// bytes straight into the buffer. The buffer's write error is sticky, so the
// last write reports any earlier one.
func (w *Writer) Write(t rdf.Triple) error {
	w.term(t.S)
	w.w.WriteByte(' ')
	w.term(t.P)
	w.w.WriteByte(' ')
	w.term(t.O)
	_, err := w.w.WriteString(" .\n")
	return err
}

// term appends one term in N-Triples surface syntax, as rdf.Term.String
// renders it. The term comes from the writer's view of the dictionary,
// without a lock; an unknown ID panics in Dict.Term, as it always has.
func (w *Writer) term(id rdf.ID) {
	if int(id) > len(w.terms) {
		w.terms = w.dict.TermView()
	}
	var t rdf.Term
	if id == rdf.Wildcard || int(id) > len(w.terms) {
		t = w.dict.Term(id)
	} else {
		t = w.terms[id-1]
	}
	switch t.Kind {
	case rdf.IRI:
		w.w.WriteByte('<')
		w.w.WriteString(t.Value)
		w.w.WriteByte('>')
	case rdf.Blank:
		w.w.WriteString("_:")
		w.w.WriteString(t.Value)
	default:
		w.w.WriteString(t.Value)
	}
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

// WriteGraph serializes g to w in deterministic (sorted) order.
func WriteGraph(w io.Writer, dict *rdf.Dict, g *rdf.Graph) error {
	nw := NewWriter(w, dict)
	if err := nw.WriteAll(g.SortedTriples()); err != nil {
		return err
	}
	return nw.Flush()
}
