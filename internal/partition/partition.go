// Package partition implements the paper's data-partitioning approach
// (§III-A, Algorithm 1). The instance triples are viewed as a graph whose
// vertices are the resources; an ownership policy assigns every resource to
// one of k partitions, and each triple is then placed on the owner of its
// subject and the owner of its object (so a base triple lives on at most two
// partitions). Because all compiled OWL-Horst rules are single-join rules,
// any two triples that can join share a resource, and both are present on
// that resource's owner — which is the correctness argument for running the
// full rule set independently per partition.
//
// Three ownership policies are provided, matching the paper: graph
// partitioning (via package gpart, the METIS stand-in), hash partitioning,
// and domain-specific partitioning driven by a locality key.
package partition

import (
	"fmt"
	"math"
	"sort"
	"time"

	"powl/internal/gpart"
	"powl/internal/rdf"
)

// Input is the data handed to a policy: the instance triples (schema triples
// already removed per Algorithm 1 step 1), the set of schema elements that
// still occur inside instance triples (class IRIs in rdf:type objects and
// the like — replicated rather than owned, per Algorithm 1), and the
// dictionary for policies that inspect term text (hash, domain).
type Input struct {
	Dict     *rdf.Dict
	Instance []rdf.Triple
	// Skip contains the schema elements: they are never assigned an owner
	// and never become vertices of the partitioning graph. Without this,
	// every class IRI would be a graph-wide hub vertex and the edge cut of
	// any partitioning would be meaningless.
	Skip map[rdf.ID]struct{}
}

// index is the dense resource table every lookup in this package goes
// through: tab[id] is the rank of id among the n partitionable resources
// (subjects and objects of the instance triples, minus schema elements) in
// ascending ID order, and -1 for every other ID. Dictionary IDs are dense,
// so the table is sized by the largest ID in Instance — no Dict needed.
func (in *Input) index() (tab []int32, n int) {
	var max rdf.ID
	for _, t := range in.Instance {
		if t.S > max {
			max = t.S
		}
		if t.O > max {
			max = t.O
		}
	}
	tab = make([]int32, int(max)+1)
	for _, t := range in.Instance {
		tab[t.S], tab[t.O] = 1, 1
	}
	for id := range in.Skip {
		if int(id) < len(tab) {
			tab[id] = 0
		}
	}
	for id, seen := range tab {
		tab[id] = -1
		if seen != 0 {
			tab[id] = int32(n)
			n++
		}
	}
	return tab, n
}

// Nodes returns the distinct partitionable resources (subjects and objects
// of the instance triples, minus schema elements), sorted by ID.
func (in *Input) Nodes() []rdf.ID {
	tab, n := in.index()
	out := make([]rdf.ID, 0, n)
	for id, v := range tab {
		if v >= 0 {
			out = append(out, rdf.ID(id))
		}
	}
	return out
}

// Policy produces an ownership list: a partition in [0,k) for every node of
// the instance graph.
type Policy interface {
	Name() string
	Owners(in *Input, k int) (map[rdf.ID]int, error)
}

// Result is a complete data partitioning.
type Result struct {
	K     int
	Owner map[rdf.ID]int
	// Parts[i] holds the base triples assigned to partition i; a triple
	// whose subject and object have different owners appears in both.
	Parts [][]rdf.Triple
	// Elapsed is the wall-clock time of ownership computation plus triple
	// assignment (the paper's "Part. Time" column of Table I).
	Elapsed time.Duration
}

// Partition runs Algorithm 1 with the given policy.
//
//powl:ignore wallclock Elapsed reproduces the paper's Part. Time measurement (Table I) — a reported duration, not an ordering input.
func Partition(in *Input, k int, pol Policy) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be ≥ 1, got %d", k)
	}
	start := time.Now()
	owner, err := pol.Owners(in, k)
	if err != nil {
		return nil, fmt.Errorf("partition: policy %s: %w", pol.Name(), err)
	}
	// own[id] is the owner of id, -1 for schema elements.
	own, _ := in.index()
	for id, v := range own {
		if v < 0 {
			continue
		}
		p, ok := owner[rdf.ID(id)]
		if !ok {
			return nil, fmt.Errorf("partition: policy %s left node %d unowned", pol.Name(), id)
		}
		own[id] = int32(p)
	}
	parts := make([][]rdf.Triple, k)
	for i := range parts {
		parts[i] = make([]rdf.Triple, 0, len(in.Instance)/k) // its share before replication
	}
	for _, t := range in.Instance {
		switch po, qo := own[t.S], own[t.O]; {
		case po >= 0 && qo >= 0 && po != qo:
			parts[po] = append(parts[po], t)
			parts[qo] = append(parts[qo], t)
		case po >= 0:
			parts[po] = append(parts[po], t)
		case qo >= 0:
			parts[qo] = append(parts[qo], t)
		default:
			// Both endpoints are schema elements; such triples are part of
			// the replicated schema, but tolerate them here by placing the
			// triple everywhere.
			for i := range parts {
				parts[i] = append(parts[i], t)
			}
		}
	}
	return &Result{K: k, Owner: owner, Parts: parts, Elapsed: time.Since(start)}, nil
}

// Metrics are the partition-quality measures of §III (Table I).
type Metrics struct {
	// Bal is the standard deviation of the per-partition node counts.
	Bal float64
	// IR is the input replication: Σ(nodes per partition)/|nodes| − 1,
	// i.e. the excess fraction of replicated nodes (0 = no replication).
	IR float64
	// NodesPerPart are the underlying counts.
	NodesPerPart []int
	// TriplesPerPart are the base-triple counts per partition.
	TriplesPerPart []int
}

// ComputeMetrics derives Bal and IR for res, a partitioning of in.
func ComputeMetrics(in *Input, res *Result) Metrics {
	m := Metrics{
		NodesPerPart:   make([]int, res.K),
		TriplesPerPart: make([]int, res.K),
	}
	tab, totalNodes := in.index()
	last := make([]int32, len(tab)) // 1 + the latest part that counted the node
	sum := 0
	for i, part := range res.Parts {
		for _, t := range part {
			for _, id := range [2]rdf.ID{t.S, t.O} {
				if tab[id] >= 0 && last[id] != int32(i+1) {
					last[id] = int32(i + 1)
					m.NodesPerPart[i]++
				}
			}
		}
		m.TriplesPerPart[i] = len(part)
		sum += m.NodesPerPart[i]
	}
	m.Bal = stddev(m.NodesPerPart)
	if totalNodes > 0 {
		m.IR = float64(sum)/float64(totalNodes) - 1
	}
	return m
}

// OutputReplication computes OR = Σ(result tuples per partition)/|union| − 1
// from per-partition result sizes and the union size; it is only known after
// the parallel run (§III, "Efficiency").
func OutputReplication(perPart []int, unionSize int) float64 {
	if unionSize == 0 {
		return 0
	}
	sum := 0
	for _, n := range perPart {
		sum += n
	}
	return float64(sum)/float64(unionSize) - 1
}

func stddev(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := float64(x) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum / float64(len(xs)))
}

// GraphPolicy is the paper's graph-partitioning policy: build the resource
// graph (one vertex per resource, one edge per triple) and hand it to the
// multilevel partitioner, which balances vertex counts and minimizes edge
// cut — and therefore replication and communication.
type GraphPolicy struct {
	Opts gpart.Options
	// CostWeights optionally replaces the balance objective's per-node
	// weight with the caller's own reasoning-cost estimate (the paper
	// suggests exactly this kind of weighting when knowledge about the data
	// distribution is available, §III-B). Nodes absent from the map keep the
	// structural default (2 + degree).
	CostWeights map[rdf.ID]int64
}

// Name implements Policy.
func (GraphPolicy) Name() string { return "graph" }

// Owners implements Policy. With fewer nodes than k it partitions into as
// many parts as there are nodes: the higher-numbered parts own nothing, and
// Partition returns them empty rather than failing.
func (p GraphPolicy) Owners(in *Input, k int) (map[rdf.ID]int, error) {
	idx, n := in.index()
	if n == 0 {
		return map[rdf.ID]int{}, nil
	}
	if k > n {
		k = n
	}
	b := gpart.NewBuilder(n)
	// Vertex weight models per-resource reasoning cost: a constant for the
	// per-resource query plus the resource's triple count (every adjacent
	// triple is enumerated by the engines). Balancing this weight rather
	// than bare node counts keeps the slowest partition close to the mean.
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 2
	}
	for _, t := range in.Instance {
		si, oi := idx[t.S], idx[t.O]
		if si >= 0 {
			weights[si]++
		}
		if oi >= 0 {
			weights[oi]++
		}
		if si >= 0 && oi >= 0 {
			b.AddEdge(int(si), int(oi), 1)
		}
	}
	for id, w := range p.CostWeights {
		if int(id) < len(idx) && idx[id] >= 0 {
			weights[idx[id]] = w
		}
	}
	for i, w := range weights {
		b.SetVWeight(i, w)
	}
	part, err := gpart.Partition(b.Build(), k, p.Opts)
	if err != nil {
		return nil, err
	}
	owner := make(map[rdf.ID]int, n)
	for id, i := range idx {
		if i >= 0 {
			owner[rdf.ID(id)] = part[i]
		}
	}
	return owner, nil
}

// HashPolicy assigns each resource by hashing its term text — streamable and
// cheap, but blind to locality, so the edge cut (and hence replication) is
// high. This is the paper's naive baseline.
type HashPolicy struct{}

// Name implements Policy.
func (HashPolicy) Name() string { return "hash" }

// Owners implements Policy.
func (HashPolicy) Owners(in *Input, k int) (map[rdf.ID]int, error) {
	idx, n := in.index()
	owner := make(map[rdf.ID]int, n)
	for id, i := range idx {
		if i >= 0 {
			owner[rdf.ID(id)] = hashTerm(in.Dict.Term(rdf.ID(id))) % k
		}
	}
	return owner, nil
}

// hashTerm is 32-bit FNV-1a over the term's kind byte and text, top bit
// cleared.
func hashTerm(t rdf.Term) int {
	h := (uint32(2166136261) ^ uint32(byte(t.Kind))) * 16777619
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint32(t.Value[i])) * 16777619
	}
	return int(h & 0x7fffffff)
}

// DomainPolicy is the paper's domain-specific policy: a dataset-supplied
// KeyFunc maps each resource to a locality key (for LUBM, the university an
// entity belongs to), and whole key groups are placed on partitions with a
// longest-processing-time bin packing so that partitions stay balanced. Like
// hash partitioning it is streamable (one counting pass plus one assignment
// pass), but it preserves the dataset's locality.
type DomainPolicy struct {
	// KeyFunc extracts the locality key of a term; return "" for terms
	// without one (they fall back to hashing).
	KeyFunc func(rdf.Term) string
}

// Name implements Policy.
func (DomainPolicy) Name() string { return "domain" }

// Owners implements Policy.
func (p DomainPolicy) Owners(in *Input, k int) (map[rdf.ID]int, error) {
	if p.KeyFunc == nil {
		return nil, fmt.Errorf("domain policy requires a KeyFunc")
	}
	nodes := in.Nodes()
	keyOf := make(map[rdf.ID]string, len(nodes))
	count := map[string]int{}
	for _, id := range nodes {
		key := p.KeyFunc(in.Dict.Term(id))
		keyOf[id] = key
		count[key]++
	}
	// LPT bin packing of key groups onto partitions.
	keys := make([]string, 0, len(count))
	for key := range count {
		if key != "" {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] > count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	loads := make([]int, k)
	keyPart := make(map[string]int, len(keys))
	for _, key := range keys {
		best := 0
		for i := 1; i < k; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		keyPart[key] = best
		loads[best] += count[key]
	}
	owner := make(map[rdf.ID]int, len(nodes))
	for _, id := range nodes {
		if key := keyOf[id]; key != "" {
			owner[id] = keyPart[key]
		} else {
			owner[id] = hashTerm(in.Dict.Term(id)) % k
		}
	}
	return owner, nil
}
