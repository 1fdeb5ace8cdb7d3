// Package ntriples implements a streaming reader and writer for the
// N-Triples serialization of RDF graphs. It is the wire format used by the
// shared-filesystem and TCP transports and by the cmd tools.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

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

// NewReader returns a Reader over r. Lines may be up to 1 MiB long.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return &Reader{scan: sc}
}

// Next returns the next statement, or io.EOF when the input is exhausted.
// Blank lines and #-comments are skipped. Malformed lines yield an error
// naming the line number.
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
// returns the triples parsed before it.
func ReadTriples(r io.Reader, dict *rdf.Dict) ([]rdf.Triple, error) {
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

// ReadGraph parses all statements from r, interning terms into dict and
// adding the triples to g. It returns the number of triples added (duplicates
// are not double-counted).
func ReadGraph(r io.Reader, dict *rdf.Dict, g *rdf.Graph) (int, error) {
	ts, err := ReadTriples(r, dict)
	return g.AddAll(ts), err
}

// Writer serializes triples as N-Triples lines.
type Writer struct {
	w    *bufio.Writer
	dict *rdf.Dict
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
// renders it.
func (w *Writer) term(id rdf.ID) {
	switch t := w.dict.Term(id); t.Kind {
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
