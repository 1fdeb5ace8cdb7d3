// Package rulepart implements the paper's rule-base partitioning approach
// (§III-B, Algorithm 2): build the rule dependency graph (rule r1 → r2 when
// a head atom of r1 unifies with a body atom of r2, so a tuple produced by
// r1 can feed r2), and partition it with the standard graph partitioner so
// that cut dependencies — each of which forces tuples onto the wire — are
// minimized while rule counts stay balanced.
package rulepart

import (
	"fmt"
	"slices"
	"time"

	"powl/internal/gpart"
	"powl/internal/rdf"
	"powl/internal/reason"
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
// partitions"). Which rules those are is the compiled Program's answer,
// from the atom index its fire loop dispatches through.
type Router struct {
	prog *reason.Program
	part []int // Result.RulePart
}

// NewRouter routes between the partitions of res; prog is the rule set res
// partitions, compiled in the same order.
func NewRouter(prog *reason.Program, res *Result) *Router {
	return &Router{prog: prog, part: res.RulePart}
}

// Destinations returns the partitions other than from whose rules can
// consume t, ascending. The consuming rules are gathered on the stack and
// turned into partitions in place, so a call allocates its answer alone,
// and nothing when the answer is empty.
func (rt *Router) Destinations(t rdf.Triple, from int) []int {
	var buf [64]int
	ps := rt.prog.AppendConsumers(buf[:0], t)
	n := 0
	for _, r := range ps {
		if p := rt.part[r]; p != from {
			ps[n] = p
			n++
		}
	}
	slices.Sort(ps[:n])
	if ps = slices.Compact(ps[:n]); len(ps) == 0 {
		return nil
	}
	return append([]int(nil), ps...)
}
