// Package rulepart implements the paper's rule-base partitioning approach
// (§III-B, Algorithm 2): build the rule dependency graph (rule r1 → r2 when
// a head atom of r1 unifies with a body atom of r2, so a tuple produced by
// r1 can feed r2), and partition it with the standard graph partitioner so
// that cut dependencies — each of which forces tuples onto the wire — are
// minimized while rule counts stay balanced.
package rulepart

import (
	"fmt"
	"time"

	"powl/internal/gpart"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// Result is a complete rule-base partitioning.
type Result struct {
	K int
	// Groups[i] lists the indices (into the original rule slice) of the
	// rules assigned to partition i.
	Groups [][]int
	// RulePart[r] is the partition of rule r.
	RulePart []int
	// CutWeight is the total weight of dependency edges crossing partitions
	// (a proxy for communication volume).
	CutWeight int64
	// Elapsed is the partitioning time.
	Elapsed time.Duration
}

// Partition runs Algorithm 2 over rs.
//
//powl:ignore wallclock Elapsed reproduces the paper's rule-partitioning time measurement — a reported duration only.
func Partition(rs []rules.Rule, k int, opts gpart.Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("rulepart: k must be ≥ 1, got %d", k)
	}
	if k > len(rs) {
		return nil, fmt.Errorf("rulepart: k=%d exceeds rule count %d", k, len(rs))
	}
	start := time.Now()
	b := gpart.NewBuilder(len(rs))
	for _, e := range rules.DependencyGraph(rs) {
		if e.From != e.To {
			b.AddEdge(e.From, e.To, int64(e.Weight))
		}
	}
	g := b.Build()
	part, err := gpart.Partition(g, k, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{K: k, RulePart: part, Groups: make([][]int, k)}
	for r, p := range part {
		res.Groups[p] = append(res.Groups[p], r)
	}
	res.CutWeight = gpart.EdgeCut(g, part)
	res.Elapsed = time.Since(start)
	return res, nil
}

// Router routes newly derived tuples between rule partitions: a tuple goes
// to every other partition owning a rule with a body atom the tuple matches
// (§IV: "we match the newly generated [tuple] with all the rules of other
// partitions").
type Router struct {
	k int
	// byPred[p] lists partitions having a body atom with constant predicate
	// p; anyPred lists partitions having a variable-predicate body atom.
	byPred  map[rdf.ID][]int
	anyPred []int
	// atoms[i] are the body atoms of partition i, for the exact match test.
	atoms [][]rules.Atom
}

// NewRouter builds the routing table for a rule partitioning.
func NewRouter(rs []rules.Rule, res *Result) *Router {
	rt := &Router{k: res.K, byPred: map[rdf.ID][]int{}, atoms: make([][]rules.Atom, res.K)}
	seenPred := map[rdf.ID]map[int]bool{}
	seenAny := map[int]bool{}
	for ri, p := range res.RulePart {
		for _, a := range rs[ri].Body {
			rt.atoms[p] = append(rt.atoms[p], a)
			if a.P.IsVar {
				if !seenAny[p] {
					seenAny[p] = true
					rt.anyPred = append(rt.anyPred, p)
				}
				continue
			}
			if seenPred[a.P.ID] == nil {
				seenPred[a.P.ID] = map[int]bool{}
			}
			if !seenPred[a.P.ID][p] {
				seenPred[a.P.ID][p] = true
				rt.byPred[a.P.ID] = append(rt.byPred[a.P.ID], p)
			}
		}
	}
	return rt
}

// Destinations returns the partitions (other than from) whose rules can
// consume t.
func (rt *Router) Destinations(t rdf.Triple, from int) []int {
	var out []int
	seen := map[int]bool{from: true}
	consider := func(p int) {
		if seen[p] {
			return
		}
		for _, a := range rt.atoms[p] {
			if a.MatchesTriple(t) {
				seen[p] = true
				out = append(out, p)
				return
			}
		}
		seen[p] = true
	}
	for _, p := range rt.byPred[t.P] {
		consider(p)
	}
	for _, p := range rt.anyPred {
		consider(p)
	}
	return out
}
