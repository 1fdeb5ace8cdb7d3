// Package query implements a small SPARQL-subset query engine over
// materialized graphs: basic graph patterns (BGP) with SELECT/DISTINCT/
// LIMIT. Materialized knowledge bases exist to make queries cheap (the
// trade-off the paper's introduction motivates: reasoning is paid at load
// time so queries need no inference); this package is the consumer side of
// that trade-off and is used by the examples and tests to interrogate
// closures.
//
// Supported syntax:
//
//	PREFIX ub: <http://benchmark.powl/lubm#>
//	SELECT DISTINCT ?x ?d WHERE {
//	    ?x a ub:Professor .
//	    ?x ub:worksFor ?d .
//	} LIMIT 10
//
// `a` abbreviates rdf:type. SELECT * selects all variables in order of
// first appearance.
package query

import (
	"context"
	"encoding/binary"
	"sort"
	"strings"

	"powl/internal/rdf"
	"powl/internal/vocab"
)

// Query is a parsed SELECT query.
type Query struct {
	// Vars are the projected variable names (without '?'), in SELECT order.
	Vars []string
	// Distinct deduplicates result rows.
	Distinct bool
	// Limit caps the number of rows; 0 means unlimited.
	Limit int
	// Patterns is the BGP.
	Patterns []Pattern
	star     bool
}

// Pattern is one triple pattern; a position is either a variable name or a
// constant ID.
type Pattern struct {
	S, P, O PatternTerm
}

// PatternTerm is one position of a pattern.
type PatternTerm struct {
	IsVar bool
	Var   string
	ID    rdf.ID
}

// Result holds the rows produced by Solve.
type Result struct {
	// Vars names the columns.
	Vars []string
	// Rows hold one ID per column.
	Rows [][]rdf.ID
}

// Parse reads the SPARQL-subset text, interning constants into dict.
func Parse(src string, dict *rdf.Dict) (*Query, error) {
	p := &qparser{src: src, dict: dict, prefixes: map[string]string{
		"rdf":  vocab.RDF,
		"rdfs": vocab.RDFS,
		"owl":  vocab.OWL,
		"xsd":  vocab.XSD,
	}}
	return p.parse()
}

// MustParse is Parse but panics on error.
func MustParse(src string, dict *rdf.Dict) *Query {
	q, err := Parse(src, dict)
	if err != nil {
		panic(err)
	}
	return q
}

// Source is what a query evaluates against: the two pattern primitives
// shared by *rdf.Graph (single-owner access, as the engines and CLIs use)
// and rdf.Snapshot (the epoch-pinned MVCC view the query server hands each
// request while a writer keeps appending).
type Source interface {
	// ForEachMatch visits every triple matching the pattern (rdf.Wildcard
	// matches anything), stopping early if fn returns false.
	ForEachMatch(s, p, o rdf.ID, fn func(rdf.Triple) bool)
	// CountMatch estimates the pattern's extent, used for join ordering.
	CountMatch(s, p, o rdf.ID) int
}

// Solve evaluates the query against g. Patterns are joined in a greedy
// selectivity order: at each step the pattern with the smallest estimated
// extent under the current bindings runs next. It reads g as g's writer
// does, and first builds the indexes the patterns can read (Indexes).
func (q *Query) Solve(g *rdf.Graph) *Result {
	g.BuildIndexes(q.Indexes())
	res, _ := q.SolveContext(context.Background(), g)
	return res
}

// Indexes returns the graph indexes the join can read, whichever of a
// pattern's variables are bound when it runs: bySP, byPO and byP for a
// constant predicate, all five for a variable one.
func (q *Query) Indexes() rdf.IndexSet {
	var set rdf.IndexSet
	for _, pat := range q.Patterns {
		if pat.P.IsVar {
			return rdf.AllIndexes
		}
		set |= rdf.IndexSP | rdf.IndexPO | rdf.IndexP
	}
	return set
}

// ctxCheckEvery is how many binding attempts pass between cancellation
// checks: frequent enough that a pathological cross-join notices a deadline
// within microseconds, rare enough to stay invisible on the hot path.
const ctxCheckEvery = 1024

// SolveContext evaluates the query against src, honouring ctx cancellation
// and deadlines. The recursive join is unbounded in the worst case (a
// pattern set with no shared variables is a cross product), so the walk
// checks ctx every few thousand binding attempts and unwinds with ctx's
// error; the partial Result accumulated so far is returned alongside it.
func (q *Query) SolveContext(ctx context.Context, src Source) (*Result, error) {
	res := &Result{Vars: q.Vars}
	if len(q.Patterns) == 0 {
		return res, nil
	}
	slots := map[string]int{}
	collect := func(t PatternTerm) {
		if t.IsVar {
			if _, ok := slots[t.Var]; !ok {
				slots[t.Var] = len(slots)
			}
		}
	}
	for _, pat := range q.Patterns {
		collect(pat.S)
		collect(pat.P)
		collect(pat.O)
	}
	for _, v := range q.Vars {
		if _, ok := slots[v]; !ok {
			// Projected variable not bound by any pattern: always empty.
			return res, nil
		}
	}

	env := make([]rdf.ID, len(slots))
	remaining := make([]Pattern, len(q.Patterns))
	copy(remaining, q.Patterns)
	var (
		seen   map[string]struct{}
		keyBuf []byte
	)
	if q.Distinct {
		seen = map[string]struct{}{}
		keyBuf = make([]byte, 0, 4*len(q.Vars))
	}
	steps := 0
	var ctxErr error

	var walk func(rem []Pattern) bool // returns false to stop (limit hit or ctx done)
	walk = func(rem []Pattern) bool {
		if steps++; steps >= ctxCheckEvery {
			steps = 0
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		if len(rem) == 0 {
			row := make([]rdf.ID, len(q.Vars))
			for i, v := range q.Vars {
				row[i] = env[slots[v]]
			}
			if q.Distinct {
				keyBuf = rowKey(keyBuf[:0], row)
				// string(keyBuf) in the lookup does not allocate; only a
				// newly seen row pays for the key copy.
				if _, dup := seen[string(keyBuf)]; dup {
					return true
				}
				seen[string(keyBuf)] = struct{}{}
			}
			res.Rows = append(res.Rows, row)
			return q.Limit == 0 || len(res.Rows) < q.Limit
		}
		// Pick the most selective pattern under current bindings.
		best, bestCount := 0, -1
		for i, pat := range rem {
			s, p, o := resolveTerm(pat.S, env, slots), resolveTerm(pat.P, env, slots), resolveTerm(pat.O, env, slots)
			n := src.CountMatch(s, p, o)
			if bestCount < 0 || n < bestCount {
				best, bestCount = i, n
			}
		}
		pat := rem[best]
		rest := make([]Pattern, 0, len(rem)-1)
		rest = append(rest, rem[:best]...)
		rest = append(rest, rem[best+1:]...)

		s, p, o := resolveTerm(pat.S, env, slots), resolveTerm(pat.P, env, slots), resolveTerm(pat.O, env, slots)
		cont := true
		src.ForEachMatch(s, p, o, func(t rdf.Triple) bool {
			bound, ok := bindPattern(pat, t, env, slots)
			if ok {
				cont = walk(rest)
			}
			for _, b := range bound {
				env[b] = 0
			}
			return cont
		})
		return cont
	}
	walk(remaining)
	return res, ctxErr
}

// rowKey appends the row's dedup key to dst: 4 fixed bytes per ID, no
// separators needed. Replaces a fmt.Fprintf-per-column string build that
// dominated DISTINCT-heavy query profiles (BenchmarkDistinct pins the win).
//
//powl:allocfree DISTINCT keying runs once per result row
func rowKey(dst []byte, row []rdf.ID) []byte {
	for _, id := range row {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

func resolveTerm(t PatternTerm, env []rdf.ID, slots map[string]int) rdf.ID {
	if !t.IsVar {
		return t.ID
	}
	return env[slots[t.Var]]
}

func bindPattern(pat Pattern, t rdf.Triple, env []rdf.ID, slots map[string]int) ([]int, bool) {
	var bound []int
	undo := func() {
		for _, b := range bound {
			env[b] = 0
		}
	}
	for _, pv := range [3]struct {
		term PatternTerm
		val  rdf.ID
	}{{pat.S, t.S}, {pat.P, t.P}, {pat.O, t.O}} {
		if !pv.term.IsVar {
			if pv.term.ID != pv.val {
				undo()
				return nil, false
			}
			continue
		}
		slot := slots[pv.term.Var]
		if cur := env[slot]; cur != 0 {
			if cur != pv.val {
				undo()
				return nil, false
			}
			continue
		}
		env[slot] = pv.val
		bound = append(bound, slot)
	}
	return bound, true
}

// SortRows orders the result rows lexicographically, for deterministic
// output in examples and tests.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Format renders the result as an aligned text table using dict.
func (r *Result) Format(dict *rdf.Dict) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, id := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(dict.Term(id).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
