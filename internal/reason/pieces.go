package reason

// Piece stratification: the static analysis behind the fire loop's
// schedule (parallel.go), after the piece decomposition of
// "Parallelisable Existential Rules: a Story of Pieces".
//
// Rule i *feeds* rule j when some head atom of i can produce a triple that
// matches some body atom of j. The check is predicate overlap only — equal
// predicate constants, or either predicate a variable — which is
// conservative: subject/object constants that would rule a match out are
// ignored, so the dependency graph may have edges the data never exercises,
// never the reverse. Missing an edge would let a piece fire before its
// premises exist within a sweep; an extra edge only costs scheduling
// freedom.
//
// The strongly connected components of the feeds graph are the *pieces*:
// mutually recursive rules that must iterate to fixpoint together. The
// condensation DAG is levelled by longest path from the sources; pieces on
// the same level share no dependency path in either direction, so their
// firings are independent and a level's whole delta can fan out across
// goroutines with no barrier between pieces. Processing levels in ascending
// order lets one sweep cascade derivations downward: a stratum-0 conclusion
// reaches its stratum-1 consumers within the same sweep instead of waiting
// a full semi-naive round.
//
// OWL-Horst instance rule sets are dominated by rdf:type-headed,
// rdf:type-bodied rules, so most of them collapse into one large piece plus
// a tail of small downstream strata — the parallel win there comes from
// fanning each stratum's delta across threads. Layered rule sets (custom
// datalog without recursion through every predicate) additionally gain the
// fewer-sweeps cascade.

// piece is one strongly connected component of the rule dependency graph.
type piece struct {
	rules []int // compiled-rule indices, ascending
}

// feeds reports whether a conclusion of a can match a body atom of b,
// judged on predicates alone.
func feeds(a, b *cRule) bool {
	for _, h := range a.head {
		for _, t := range b.body {
			if h.p.isVar || t.p.isVar || h.p.id == t.p.id {
				return true
			}
		}
	}
	return false
}

// stratify decomposes the compiled rule set into pieces grouped by
// dependency level: strata[0] holds the pieces fed by no other piece, and
// every piece's feeders sit at strictly lower levels. Within a stratum,
// pieces are ordered by their smallest rule index, so the decomposition is
// deterministic for a given rule set.
func stratify(crs []cRule) [][]piece {
	n := len(crs)
	if n == 0 {
		return nil
	}
	adj := make([][]int, n)
	for i := range crs {
		for j := range crs {
			if feeds(&crs[i], &crs[j]) {
				adj[i] = append(adj[i], j)
			}
		}
	}

	// Tarjan's SCC, iterative (rule sets are small, but recursion depth
	// should not depend on rule count). comp[v] is v's component id;
	// components are numbered in reverse topological order.
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	ncomp := 0
	next := 0
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				switch {
				case index[w] == unvisited:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				case onStack[w]:
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}

	// Level the condensation by longest path. Tarjan numbers components in
	// reverse topological order, so iterating components descending visits
	// every feeder before its consumers.
	level := make([]int, ncomp)
	maxLevel := 0
	for c := ncomp - 1; c >= 0; c-- {
		for v := 0; v < n; v++ {
			if comp[v] != c {
				continue
			}
			for _, w := range adj[v] {
				if d := comp[w]; d != c && level[c]+1 > level[d] {
					level[d] = level[c] + 1
				}
			}
		}
		if level[c] > maxLevel {
			maxLevel = level[c]
		}
	}

	members := make([][]int, ncomp)
	for v := 0; v < n; v++ {
		members[comp[v]] = append(members[comp[v]], v) // ascending: v ascends
	}
	strata := make([][]piece, maxLevel+1)
	// Descending component id = ascending discovery order of the smallest
	// member, which keeps piece order within a stratum deterministic.
	for c := ncomp - 1; c >= 0; c-- {
		strata[level[c]] = append(strata[level[c]], piece{rules: members[c]})
	}
	return strata
}
