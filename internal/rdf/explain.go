package rdf

import (
	"fmt"
	"io"
	"strings"
)

// ExplainNode is one node of a derivation DAG: the triple, how it came to be
// (rule name, or "" for an asserted triple), and the sub-DAGs of its
// premises. Nodes for the same log offset are shared, so diamond-shaped
// derivations stay DAGs rather than exploding into trees.
type ExplainNode struct {
	Triple    Triple
	Off       uint32
	Rule      string // "" = asserted (base) triple
	Round     int
	Premises  []*ExplainNode
	Truncated bool // depth bound hit: premises omitted
}

// IsDerived reports whether the node was produced by a rule.
func (n *ExplainNode) IsDerived() bool { return n.Rule != "" }

// DefaultExplainDepth bounds Explain's recursion when callers pass depth<=0.
const DefaultExplainDepth = 16

// Explain reconstructs the derivation DAG of t down to maxDepth levels of
// premises (maxDepth <= 0 means DefaultExplainDepth). ok is false when t is
// not visible in the snapshot or the graph records no provenance. Safe from
// any goroutine: offsets are resolved through pinned posting prefixes and
// provenance records below the watermark are immutable.
//
// Recorded premise offsets are always strictly below the derived triple's
// own offset (premises are in the log before their consequence is appended),
// so the DAG is acyclic by construction even for sameAs-style mutual
// derivations — each direction's record points at the earlier occurrence. A
// visited guard still bounds the walk defensively against corrupt columns.
func (s Snapshot) Explain(t Triple, maxDepth int) (*ExplainNode, bool) {
	if s.g.prov == nil {
		return nil, false
	}
	off, ok := s.offsetOf(s.g.access(t.S, t.P, t.O, false), t)
	if !ok {
		return nil, false
	}
	if maxDepth <= 0 {
		maxDepth = DefaultExplainDepth
	}
	b := &explainBuilder{s: s, done: make(map[uint32]*ExplainNode), onPath: make(map[uint32]bool)}
	return b.build(off, maxDepth), true
}

// Explain is the writer-side convenience: it pins a snapshot and explains t
// within it.
func (g *Graph) Explain(t Triple, maxDepth int) (*ExplainNode, bool) {
	return g.Snapshot().Explain(t, maxDepth)
}

type explainBuilder struct {
	s      Snapshot
	done   map[uint32]*ExplainNode // fully expanded nodes, shared across the DAG
	onPath map[uint32]bool         // defensive cycle guard
}

// build returns the node for log offset off, expanding premises while depth
// lasts. Only fully expanded subtrees are memoized, so a node truncated deep
// in one branch can still be fully expanded when reached along a shorter
// path.
func (b *explainBuilder) build(off uint32, depth int) *ExplainNode {
	if n, ok := b.done[off]; ok {
		return n
	}
	t := b.s.log[off]
	d := b.s.g.prov.At(off)
	n := &ExplainNode{Triple: t, Off: off, Round: int(d.Round)}
	if !d.IsDerived() {
		n.Round = 0
		b.done[off] = n
		return n
	}
	n.Rule = b.s.g.prov.RuleName(d.Rule)
	if depth <= 1 {
		n.Truncated = true
		return n
	}
	b.onPath[off] = true
	complete := true
	for _, p := range d.Prem {
		// A tombstoned premise offset can only be observed transiently
		// (mid-retraction, before rederivation restores the fixpoint);
		// treat it like NoPremise rather than explaining a dead triple.
		if p == NoPremise || int(p) >= len(b.s.log) || b.s.dead.has(p) || b.onPath[p] {
			continue
		}
		pn := b.build(p, depth-1)
		n.Premises = append(n.Premises, pn)
		if pn.Truncated || !b.isDone(pn) {
			complete = false
		}
	}
	delete(b.onPath, off)
	if complete {
		b.done[off] = n
	}
	return n
}

func (b *explainBuilder) isDone(n *ExplainNode) bool {
	return b.done[n.Off] == n
}

// ExplainDoc is the JSON-ready form of an ExplainNode, with terms rendered
// in N-Triples surface syntax.
type ExplainDoc struct {
	Triple    string        `json:"triple"`
	Rule      string        `json:"rule,omitempty"`
	Round     int           `json:"round,omitempty"`
	Premises  []*ExplainDoc `json:"premises,omitempty"`
	Truncated bool          `json:"truncated,omitempty"`
}

// NewExplainDoc renders the DAG into its JSON form. Shared nodes are
// expanded per reference (JSON has no aliasing), which is fine under the
// depth bound.
func NewExplainDoc(dict *Dict, n *ExplainNode) *ExplainDoc {
	if n == nil {
		return nil
	}
	doc := &ExplainDoc{
		Triple:    dict.FormatTriple(n.Triple),
		Rule:      n.Rule,
		Round:     n.Round,
		Truncated: n.Truncated,
	}
	for _, p := range n.Premises {
		doc.Premises = append(doc.Premises, NewExplainDoc(dict, p))
	}
	return doc
}

// WriteExplainText renders the DAG as an indented text tree:
//
//	<.. Professor> ... [rule rdfs9, round 2]
//	├─ <.. AssociateProfessor> ... [asserted]
//	└─ <.. subClassOf ..> [asserted]
func WriteExplainText(w io.Writer, dict *Dict, n *ExplainNode) error {
	return writeExplainNode(w, dict, n, "", "")
}

func writeExplainNode(w io.Writer, dict *Dict, n *ExplainNode, lead, childLead string) error {
	tag := "[asserted]"
	if n.IsDerived() {
		tag = fmt.Sprintf("[rule %s, round %d]", n.Rule, n.Round)
		if n.Truncated {
			tag += " [premises truncated]"
		}
	}
	if _, err := fmt.Fprintf(w, "%s%s . %s\n", lead, dict.FormatTriple(n.Triple), tag); err != nil {
		return err
	}
	for i, p := range n.Premises {
		branch, next := "├─ ", "│  "
		if i == len(n.Premises)-1 {
			branch, next = "└─ ", "   "
		}
		if err := writeExplainNode(w, dict, p, childLead+branch, childLead+next); err != nil {
			return err
		}
	}
	return nil
}

// ExplainString is WriteExplainText into a string, for CLI and test use.
func ExplainString(dict *Dict, n *ExplainNode) string {
	var sb strings.Builder
	_ = WriteExplainText(&sb, dict, n)
	return sb.String()
}
