// Package gpart implements a multilevel k-way graph partitioner in the style
// of METIS (Karypis & Kumar): heavy-edge-matching coarsening, greedy region
// growing on the coarsest graph, and boundary Kernighan–Lin/FM refinement
// during uncoarsening. The paper's graph-based data-partitioning policy and
// its rule-dependency partitioning (Algorithms 1 and 2) both call into this
// package.
//
// The objective is the standard one: minimize the weight of cut edges
// subject to the per-part vertex-weight balance constraint
// maxLoad ≤ (1+ε)·totalWeight/k.
//
// Every level is a handful of flat arrays allocated once, and every choice
// among equals falls to the lowest vertex or part index, so the result is a
// function of (graph, k, Options) at every k.
package gpart

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Graph is an undirected graph with weighted vertices and edges, in CSR
// (compressed adjacency) form with every row sorted by neighbor. Build one
// with a Builder.
type Graph struct {
	n       int
	vweight []int64
	xadj    []int32 // len n+1; adjacency of v is adjncy[xadj[v]:xadj[v+1]]
	adjncy  []int32
	adjwgt  []int64
}

func (g *Graph) totalVWeight() int64 {
	var s int64
	for _, w := range g.vweight {
		s += w
	}
	return s
}

// contract merges each matched pair of g's vertices into one (match[v] == v
// leaves v single) and returns the graph on the cn results, which
// fineToCoarse numbers by their lower endpoint. The rows of g may come in
// any order and repeat a neighbor, so long as the adjacency is symmetric;
// those of the result are sorted with parallel edges merged and loops
// dropped, and no comparison sorts them: an arc cv→cu is written to row cu,
// and since cv only ascends, every row fills in sorted order with the
// repeats of cv next to each other.
func contract(g *Graph, match, fineToCoarse []int32, cn int) *Graph {
	cg := &Graph{n: cn, vweight: make([]int64, cn), xadj: make([]int32, cn+1)}
	// Room for every arc that could survive; the gaps close below.
	for v := 0; v < g.n; v++ {
		cg.xadj[fineToCoarse[v]+1] += g.xadj[v+1] - g.xadj[v]
	}
	for cv := 0; cv < cn; cv++ {
		cg.xadj[cv+1] += cg.xadj[cv]
	}
	adj, wgt := make([]int32, len(g.adjncy)), make([]int64, len(g.adjncy))
	// rows[cu] is where row cu takes its next arc and the source of its last
	// one, side by side: the inner loop touches one cache line per arc.
	rows := make([]struct{ fill, last int32 }, cn)
	for cv := range rows {
		rows[cv].fill, rows[cv].last = cg.xadj[cv], -1
	}
	for v := 0; v < g.n; v++ {
		m := int(match[v])
		if m < v {
			continue
		}
		cv := fineToCoarse[v]
		for x := v; ; x = m {
			cg.vweight[cv] += g.vweight[x]
			for i := g.xadj[x]; i < g.xadj[x+1]; i++ {
				cu := fineToCoarse[g.adjncy[i]]
				if cu == cv {
					continue
				}
				if r := &rows[cu]; r.last == cv {
					wgt[r.fill-1] += g.adjwgt[i]
				} else {
					adj[r.fill], wgt[r.fill] = cv, g.adjwgt[i]
					r.fill, r.last = r.fill+1, cv
				}
			}
			if x == m {
				break
			}
		}
	}
	end := int32(0)
	for cv := 0; cv < cn; cv++ {
		lo := cg.xadj[cv]
		cg.xadj[cv] = end
		copy(wgt[end:], wgt[lo:rows[cv].fill])
		end += int32(copy(adj[end:], adj[lo:rows[cv].fill]))
	}
	cg.xadj[cn] = end
	cg.adjncy, cg.adjwgt = adj[:end], wgt[:end]
	return cg
}

// Builder accumulates an undirected graph; parallel edges merge by summing
// weights, and self-loops are dropped.
type Builder struct {
	vweight []int64
	edges   []edge
}

type edge struct {
	u, v int32
	w    int64
}

// NewBuilder returns a builder for a graph with n vertices of unit weight.
func NewBuilder(n int) *Builder {
	b := &Builder{vweight: make([]int64, n)}
	for i := range b.vweight {
		b.vweight[i] = 1
	}
	return b
}

// SetVWeight sets the weight of vertex v.
func (b *Builder) SetVWeight(v int, w int64) { b.vweight[v] = w }

// AddEdge adds an undirected edge {u, v} with weight w, merging with any
// existing edge.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u != v {
		b.edges = append(b.edges, edge{int32(u), int32(v), w})
	}
}

// Build finalizes the graph into CSR form: a counting sort of the edge list
// by endpoint gives rows in arrival order, and contracting those under the
// identity matching sorts and merges them.
func (b *Builder) Build() *Graph {
	n := len(b.vweight)
	raw := &Graph{n: n, vweight: b.vweight, xadj: make([]int32, n+1)}
	for _, e := range b.edges {
		raw.xadj[e.u+1]++
		raw.xadj[e.v+1]++
	}
	identity := make([]int32, n)
	for v := range identity {
		identity[v] = int32(v)
		raw.xadj[v+1] += raw.xadj[v]
	}
	raw.adjncy, raw.adjwgt = make([]int32, raw.xadj[n]), make([]int64, raw.xadj[n])
	next := append([]int32(nil), raw.xadj[:n]...)
	for _, e := range b.edges {
		raw.adjncy[next[e.u]], raw.adjwgt[next[e.u]] = e.v, e.w
		next[e.u]++
		raw.adjncy[next[e.v]], raw.adjwgt[next[e.v]] = e.u, e.w
		next[e.v]++
	}
	return contract(raw, identity, identity, n)
}

// Options tunes the partitioner.
type Options struct {
	// Imbalance is ε in the balance constraint; 0 means the default 0.05.
	Imbalance float64
	// Seed seeds the (deterministic) pseudo-random choices.
	Seed int64
	// RefinePasses bounds FM passes per level; 0 means 8.
	RefinePasses int
}

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	return o
}

// Partition divides g into k parts, returning part[v] ∈ [0,k) for each
// vertex. It errors if k < 1 or k > the vertex count. The same graph, k and
// Options always yield the same slice.
func Partition(g *Graph, k int, opts Options) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("gpart: k must be ≥ 1, got %d", k)
	}
	if g.n == 0 {
		return nil, nil
	}
	if k > g.n {
		return nil, fmt.Errorf("gpart: k=%d exceeds vertex count %d", k, g.n)
	}
	if k == 1 {
		return make([]int, g.n), nil
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Coarsening phase: levels[i].fineToCoarse maps level i-1 onto level i.
	// It stops once the graph has at most max(24·k, 128) vertices.
	levels := []coarseResult{{g: g}}
	for levels[len(levels)-1].g.n > max(24*k, 128) {
		next, ok := coarsen(levels[len(levels)-1].g, rng)
		if !ok {
			break // matching stalled; give up shrinking
		}
		levels = append(levels, next)
	}

	// Initial partition on the coarsest graph.
	coarsest := levels[len(levels)-1].g
	part := growPartition(coarsest, k, rng)
	refine(coarsest, part, k, opts)

	// Uncoarsen + refine.
	for i := len(levels) - 1; i > 0; i-- {
		fine := levels[i-1].g
		finePart := make([]int, fine.n)
		for v := range finePart {
			finePart[v] = part[levels[i].fineToCoarse[v]]
		}
		part = finePart
		refine(fine, part, k, opts)
	}
	rebalance(g, part, k, opts)
	return part, nil
}

// vheap is a min-heap of vertices ordered by (key, vertex index), on
// container/heap. pos locates a vertex in it, so lowering a key is O(log n).
type vheap struct {
	key  []int64
	pos  []int32 // slot of v in heap, or -1
	heap []int32
}

func newVheap(n int) *vheap {
	h := &vheap{key: make([]int64, n), pos: make([]int32, n), heap: make([]int32, 0, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *vheap) Len() int { return len(h.heap) }

func (h *vheap) Less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	return h.key[a] < h.key[b] || h.key[a] == h.key[b] && a < b
}

func (h *vheap) Swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]], h.pos[h.heap[j]] = int32(i), int32(j)
}

// Push is never called: lower appends in place, so that no vertex is boxed.
func (h *vheap) Push(any) {}

// Pop drops the last slot, where heap.Pop has moved the least vertex.
func (h *vheap) Pop() any {
	last := len(h.heap) - 1
	h.pos[h.heap[last]], h.heap = -1, h.heap[:last]
	return nil
}

// lower inserts v with the given key, or moves it up to a key no higher
// than the one it has.
func (h *vheap) lower(v int, key int64) {
	if h.pos[v] < 0 {
		h.pos[v] = int32(len(h.heap))
		h.heap = append(h.heap, int32(v))
	}
	h.key[v] = key
	heap.Fix(h, int(h.pos[v]))
}

// pop removes and returns the least vertex.
func (h *vheap) pop() int {
	v := h.heap[0]
	heap.Pop(h)
	return int(v)
}

func (h *vheap) reset() {
	for _, v := range h.heap {
		h.pos[v] = -1
	}
	h.heap = h.heap[:0]
}

// rebalance enforces a lower load bound at the finest level: FM refinement
// keeps parts under the (1+ε) cap but can leave some parts starved, which
// translates directly into idle processors. Fill the most starved part up to
// (1−ε)·average with the cheapest-to-move vertices (least cut damage,
// preferring vertices adjacent to it) of parts that can spare them, then the
// next, until no part is starved or no legal move remains. Move costs live
// in a heap and only the moved vertex's neighbors are re-priced.
func rebalance(g *Graph, part []int, k int, opts Options) {
	loads := partLoads(g, part, k)
	floor := float64(g.totalVWeight()) / float64(k) * (1 - opts.Imbalance)
	var h *vheap
	for {
		dst := -1
		for p := 0; p < k; p++ {
			if loads[p] < int64(floor) && (dst == -1 || loads[p] < loads[dst]) {
				dst = p
			}
		}
		if dst == -1 {
			return
		}
		if h == nil {
			h = newVheap(g.n)
		}
		h.reset()
		for v := 0; v < g.n; v++ {
			if part[v] == dst {
				continue
			}
			var cost int64 // internal weight lost minus weight to dst gained
			for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
				switch part[g.adjncy[i]] {
				case part[v]:
					cost += g.adjwgt[i]
				case dst:
					cost -= g.adjwgt[i]
				}
			}
			h.lower(v, cost)
		}
		for loads[dst] < int64(floor) {
			if len(h.heap) == 0 {
				return // nothing movable without starving the source
			}
			v := h.pop()
			home := part[v]
			if float64(loads[home]-g.vweight[v]) < floor {
				continue // sources only shrink during a fill: v stays unmovable
			}
			loads[home] -= g.vweight[v]
			loads[dst] += g.vweight[v]
			part[v] = dst
			for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
				u := int(g.adjncy[i])
				if h.pos[u] < 0 {
					continue
				}
				w := g.adjwgt[i]
				if part[u] == home {
					w *= 2 // one internal edge fewer, one edge to dst more
				}
				h.lower(u, h.key[u]-w)
			}
		}
	}
}

// coarseResult is one level of the coarsening hierarchy.
type coarseResult struct {
	g            *Graph
	fineToCoarse []int32 // vertex of the level above -> vertex of g
}

// coarsen contracts a heavy-edge matching. It reports ok=false when the
// graph barely shrinks (matching stalled, e.g. star graphs).
func coarsen(g *Graph, rng *rand.Rand) (coarseResult, bool) {
	match := make([]int32, g.n)
	for i := range match {
		match[i] = -1
	}
	matched := 0
	for _, v := range rng.Perm(g.n) {
		if match[v] != -1 {
			continue
		}
		bestU, bestW := int32(-1), int64(-1)
		for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
			if u := g.adjncy[i]; match[u] == -1 && g.adjwgt[i] > bestW {
				bestU, bestW = u, g.adjwgt[i]
			}
		}
		if bestU >= 0 {
			match[v], match[bestU] = bestU, int32(v)
			matched += 2
		} else {
			match[v] = int32(v)
		}
	}
	cn := g.n - matched/2
	if float64(cn) > 0.95*float64(g.n) {
		return coarseResult{}, false
	}

	fineToCoarse := make([]int32, g.n)
	for v, cv := 0, int32(0); v < g.n; v++ {
		if m := match[v]; int(m) >= v {
			fineToCoarse[v], fineToCoarse[m] = cv, cv
			cv++
		}
	}
	return coarseResult{g: contract(g, match, fineToCoarse, cn), fineToCoarse: fineToCoarse}, true
}

// growPartition produces an initial k-way partition by greedy region
// growing: repeatedly seed an empty part and absorb the frontier vertex with
// the strongest connection to the region (lowest index among equals) until
// the part reaches its weight target.
func growPartition(g *Graph, k int, rng *rand.Rand) []int {
	part := make([]int, g.n)
	for i := range part {
		part[i] = -1
	}
	target := g.totalVWeight() / int64(k)
	if target < 1 {
		target = 1
	}
	order := rng.Perm(g.n)
	loads := make([]int64, k)
	// The frontier, keyed by minus the edge weight into the growing region.
	frontier := newVheap(g.n)
	for p := 0; p < k; p++ {
		for len(order) > 0 && part[order[0]] != -1 {
			order = order[1:]
		}
		if len(order) == 0 {
			break
		}
		frontier.lower(order[0], -1)
		for loads[p] < target && len(frontier.heap) > 0 {
			v := frontier.pop()
			part[v] = p
			loads[p] += g.vweight[v]
			for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
				u := int(g.adjncy[i])
				if part[u] != -1 {
					continue
				}
				conn := -g.adjwgt[i]
				if frontier.pos[u] >= 0 {
					conn += frontier.key[u]
				}
				frontier.lower(u, conn)
			}
		}
		frontier.reset()
	}
	// Leftovers (disconnected remainder or exhausted seeds): assign to the
	// lightest part.
	for v := 0; v < g.n; v++ {
		if part[v] == -1 {
			best := 0
			for p := 1; p < k; p++ {
				if loads[p] < loads[best] {
					best = p
				}
			}
			part[v] = best
			loads[best] += g.vweight[v]
		}
	}
	return part
}

// refine runs boundary FM passes: move boundary vertices to the neighboring
// part with the highest positive gain, subject to the balance constraint.
// Each pass never increases the cut; passes stop at opts.RefinePasses or when
// a pass makes no move.
func refine(g *Graph, part []int, k int, opts Options) {
	maxLoad := int64(float64(g.totalVWeight())*(1+opts.Imbalance)/float64(k)) + 1
	loads := partLoads(g, part, k)
	// ext[p] is the edge weight from the vertex at hand into part p.
	ext := make([]int64, k)
	// settled[v]: v was looked at and every move would raise the cut. Only a
	// neighbor's move can change that (loads cannot), so passes skip v until
	// one happens.
	settled := make([]bool, g.n)
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moved := 0
		for v := 0; v < g.n; v++ {
			if settled[v] {
				continue
			}
			home, vw := part[v], g.vweight[v]
			var all int64
			for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
				ext[part[g.adjncy[i]]] += g.adjwgt[i]
				all += g.adjwgt[i]
			}
			internal := ext[home]
			ext[home] = 0
			settled[v] = true
			if internal == all {
				continue // no edge leaves home, and ext is all zero again
			}
			// Parts are scanned in ascending order, so equal gains go to the
			// lowest part.
			bestP, bestGain := -1, int64(0)
			for p := 0; p < k; p++ {
				if ext[p] == 0 {
					continue
				}
				gain := ext[p] - internal
				settled[v] = settled[v] && gain < 0
				if gain > bestGain && loads[p]+vw <= maxLoad {
					bestP, bestGain = p, gain
				}
			}
			// Also allow zero-gain moves that strictly improve balance;
			// they reduce bal without hurting the cut.
			for p := 0; p < k && bestP == -1 && !settled[v]; p++ {
				if ext[p] > 0 && ext[p] == internal && loads[p]+vw < loads[home] {
					bestP = p
				}
			}
			clear(ext)
			if bestP >= 0 {
				loads[home] -= vw
				loads[bestP] += vw
				part[v] = bestP
				moved++
				for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
					settled[g.adjncy[i]] = false
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}

// EdgeCut returns the total weight of edges whose endpoints lie in different
// parts.
func EdgeCut(g *Graph, part []int) int64 {
	var cut int64
	for v := 0; v < g.n; v++ {
		for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
			if u := int(g.adjncy[i]); u > v && part[u] != part[v] {
				cut += g.adjwgt[i]
			}
		}
	}
	return cut
}

// partLoads returns the vertex-weight load of each part.
func partLoads(g *Graph, part []int, k int) []int64 {
	loads := make([]int64, k)
	for v, p := range part {
		loads[p] += g.vweight[v]
	}
	return loads
}
