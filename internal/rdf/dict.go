package rdf

import (
	"fmt"
	"strings"
	"sync"
)

// Dict interns terms, assigning each distinct (kind, value) pair a dense ID
// starting at 1. It is safe for concurrent use; interning takes a write lock
// only on first sight of a term.
type Dict struct {
	mu    sync.RWMutex
	ids   map[Term]ID
	terms []Term // terms[i] is the term with ID i+1
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[Term]ID)}
}

// Intern returns the ID for term, assigning a fresh one if the term has not
// been seen before.
func (d *Dict) Intern(t Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(len(d.terms))
	d.ids[t] = id
	return id
}

// InternAll interns ts in order under one write lock and returns their IDs
// appended to ids. Each term new to the dictionary is stored as a private
// copy — the new terms' bytes share one allocation per call — so ts may be
// views of a buffer the caller reuses. The IDs are exactly those a loop of
// Intern over ts would assign.
func (d *Dict) InternAll(ts []Term, ids []ID) []ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	base, size := len(ids), 0
	for _, t := range ts {
		id := d.ids[t] // 0 when absent: no term has ID 0
		if id == 0 {
			size += len(t.Value)
		}
		ids = append(ids, id)
	}
	var arena strings.Builder
	arena.Grow(size)
	for i, t := range ts {
		if ids[base+i] == 0 {
			arena.WriteString(t.Value)
		}
	}
	copied := arena.String()
	for i, t := range ts {
		if ids[base+i] != 0 {
			continue
		}
		t.Value, copied = copied[:len(t.Value)], copied[len(t.Value):]
		id, ok := d.ids[t] // an earlier duplicate in ts interned it already
		if !ok {
			d.terms = append(d.terms, t)
			id = ID(len(d.terms))
			d.ids[t] = id
		}
		ids[base+i] = id
	}
	return ids
}

// TermView returns the dictionary's term table as of the call: view[i] is
// the term with ID i+1. The table is append-only below its length, so the
// view stays valid, and reads of it take no lock, while other goroutines
// keep interning; a holder that meets an ID beyond it takes a new view. The
// caller must not modify it.
func (d *Dict) TermView() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// InternIRI interns an IRI given its text (without angle brackets).
func (d *Dict) InternIRI(iri string) ID { return d.Intern(Term{Kind: IRI, Value: iri}) }

// InternLiteral interns a literal given its full lexical form (with quotes).
func (d *Dict) InternLiteral(lex string) ID { return d.Intern(Term{Kind: Literal, Value: lex}) }

// InternBlank interns a blank node given its label (without the "_:" prefix).
func (d *Dict) InternBlank(label string) ID { return d.Intern(Term{Kind: Blank, Value: label}) }

// Lookup returns the ID for term and whether it is interned, without
// modifying the dictionary.
func (d *Dict) Lookup(t Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[t]
	return id, ok
}

// Term returns the term with the given ID. It panics if id is Wildcard or out
// of range, since that always indicates a programming error.
func (d *Dict) Term(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == Wildcard || int(id) > len(d.terms) {
		panic(fmt.Sprintf("rdf: no term with ID %d (dict has %d terms)", id, len(d.terms)))
	}
	return d.terms[id-1]
}

// Len reports the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// FormatTriple renders t in N-Triples surface syntax (without trailing dot).
func (d *Dict) FormatTriple(t Triple) string {
	return d.Term(t.S).String() + " " + d.Term(t.P).String() + " " + d.Term(t.O).String()
}
