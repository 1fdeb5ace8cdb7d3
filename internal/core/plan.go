package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"powl/internal/cluster"
	"powl/internal/datagen"
	"powl/internal/gpart"
	"powl/internal/owlhorst"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rulepart"
	"powl/internal/rules"
	"powl/internal/vocab"
)

// Plan is the paper's batch set-up (§III, Algorithm 1 and 2): what every
// worker starts from and how the tuples it derives travel. Every batch entry
// point — the in-process cluster, the shared-filesystem work directory and
// the Table I measurement — runs the one plan built by NewPlan (or, for a
// caller's own rules, MaterializeRules).
type Plan struct {
	// Assignments[i] is worker i's base and rules: its owned slice plus the
	// replicated schema, or — under rule partitioning and at k=1 — the start
	// graph, which holds the whole input.
	Assignments []cluster.Assignment
	// Router routes derived tuples by owner and rule group (§IV).
	Router cluster.Router
	// Owner is the owner table of the data strategies: Owner[id] is the
	// data partition owning resource id, -1 for unowned (schema) terms and
	// for IDs past its end. nil under rule partitioning.
	Owner []int32
	// PartitionTime is ownership computation plus triple assignment, and
	// the rule-graph partitioning where there is one (Table I).
	PartitionTime time.Duration
	// Metrics holds bal/IR of the data partition (nil for rule strategy).
	Metrics *partition.Metrics
	// RuleCut is the dependency edge cut (rule and hybrid strategies).
	RuleCut int64
}

// workload is what a plan divides among the workers: the instance triples
// (owned and routed), the schema triples (replicated to every worker), the
// schema elements the data policies must not own, the rules, and how to
// build the start graph — instance and schema together — that every worker
// whose base is the whole input clones.
type workload struct {
	instance, schema []rdf.Triple
	skip             map[rdf.ID]struct{}
	rules            []rules.Rule
	start            func() *rdf.Graph
}

// NewPlan compiles the dataset's ontology (OWL-Horst), splits off its schema
// and plans the workers for cfg's strategy, policy and worker count.
func NewPlan(ds *datagen.Dataset, cfg Config) (*Plan, error) {
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	skip := owlhorst.SchemaElements(ds.Dict, compiled.Schema)
	ownIndividuals(skip, instance, ds.Dict.InternIRI(vocab.RDFType))
	return plan(ds, workload{
		instance: instance,
		schema:   compiled.Schema.Triples(),
		skip:     skip,
		rules:    compiled.InstanceRules,
		start:    func() *rdf.Graph { return compiled.Start(ds.Graph) },
	}, cfg.withDefaults())
}

// ownIndividuals removes from skip every term an instance triple uses as an
// individual: its subject, and its object unless the predicate is rdf:type,
// whose object is a class. Such a term is a schema element too when it sits
// in a schema-namespace triple (an rdfs:label, an owl:sameAs, a hasValue
// filler), but unowned it would place none of its instance triples, and a
// join through it would never meet both premises (DESIGN.md §4, invariant
// 3).
func ownIndividuals(skip map[rdf.ID]struct{}, instance []rdf.Triple, typ rdf.ID) {
	var last rdf.ID
	for id := range skip {
		last = max(last, id)
	}
	in := make([]bool, int(last)+1)
	for id := range skip {
		in[id] = true
	}
	drop := func(id rdf.ID) {
		if id <= last && in[id] {
			in[id] = false
			delete(skip, id)
		}
	}
	for _, t := range instance {
		drop(t.S)
		if t.P != typ {
			drop(t.O)
		}
	}
}

// plan builds every Plan, through planData and planRules. The hybrid
// strategy composes the data plan of kd slices with the rule plan of kr
// groups: worker (i, j) = i·kr+j holds data slice i and rule group j.
//
// It is the one check of a rule set against a strategy, made before any
// data is read: reason.Compile's (which rejects unsafe rules), and, for the
// strategies that partition the data, the single-join property (§II) that
// ownership routing needs to co-locate every joinable tuple. Rule
// partitioning gives every worker all the data, and so does a single
// worker, so neither needs such a property.
func plan(ds *datagen.Dataset, w workload, cfg Config) (*Plan, error) {
	prog, err := reason.Compile(w.rules)
	if err != nil {
		return nil, err
	}
	// The start graph is built once, on first use, with the index scope the
	// closure joins through, so the workers that clone it build none.
	build := w.start
	w.start = sync.OnceValue(func() *rdf.Graph {
		g := build()
		g.BuildScope(prog.Scope())
		return g
	})
	if cfg.Workers > 1 && (cfg.Strategy == DataPartitioning || cfg.Strategy == HybridPartitioning) {
		for _, r := range w.rules {
			if !r.IsSingleJoin() {
				return nil, fmt.Errorf(
					"core: rule %q has no variable shared across all body atoms in subject/object position; data partitioning cannot guarantee completeness for it (use Strategy: RulePartitioning)", r.Name)
			}
		}
	}
	switch cfg.Strategy {
	case DataPartitioning:
		return planData(ds, w, cfg.Workers, cfg)
	case RulePartitioning:
		return planRules(w, prog, cfg.Workers, cfg.Seed)
	case HybridPartitioning:
		kd, kr := factorWorkers(cfg.Workers, len(w.rules))
		rp, err := planRules(w, prog, kr, cfg.Seed)
		if err != nil {
			return nil, err
		}
		dp, err := planData(ds, w, kd, cfg)
		if err != nil {
			return nil, err
		}
		grid := make([]cluster.Assignment, cfg.Workers)
		for i := range grid {
			grid[i] = dp.Assignments[i/kr]
			grid[i].Rules = rp.Assignments[i%kr].Rules
		}
		dp.Assignments, dp.Router = grid, newOwnerRouter(dp.Owner, kd, kr, rp.Router.(*rulepart.Router))
		dp.PartitionTime += rp.PartitionTime
		dp.RuleCut = rp.RuleCut
		return dp, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", cfg.Strategy)
	}
}

// planData partitions the instance data k ways (Algorithm 1); every worker
// holds all the rules. At k=1 the one worker's base is the whole input, so
// it starts from the start graph.
func planData(ds *datagen.Dataset, w workload, k int, cfg Config) (*Plan, error) {
	pol, err := policyFor(cfg.Policy, cfg.Seed, ds.DomainKey)
	if err != nil {
		return nil, err
	}
	in := &partition.Input{Dict: ds.Dict, Instance: w.instance, Skip: w.skip}
	pres, err := partition.Partition(in, k, pol)
	if err != nil {
		return nil, err
	}
	m := partition.ComputeMetrics(in, pres)
	p := &Plan{Assignments: make([]cluster.Assignment, k), Owner: ownerTable(pres.Owner),
		PartitionTime: pres.Elapsed, Metrics: &m}
	if k == 1 {
		p.Assignments[0] = cluster.Assignment{Start: w.start, Rules: w.rules}
	} else {
		for i, part := range pres.Parts {
			p.Assignments[i] = cluster.Assignment{Base: slices.Concat(part, w.schema), Rules: w.rules}
		}
	}
	p.Router = homeRouter{newOwnerRouter(p.Owner, k, 1, nil)}
	return p, nil
}

// planRules partitions the rules k ways (Algorithm 2); every worker holds
// all the data. prog is w.rules compiled, which the router matches tuples
// against.
func planRules(w workload, prog *reason.Program, k int, seed int64) (*Plan, error) {
	rres, err := rulepart.Partition(w.rules, k, gpart.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	p := &Plan{Assignments: make([]cluster.Assignment, k), Router: rulepart.NewRouter(prog, rres),
		PartitionTime: rres.Elapsed, RuleCut: rres.CutWeight}
	for i, group := range rres.Groups {
		rs := make([]rules.Rule, len(group))
		for j, r := range group {
			rs[j] = w.rules[r]
		}
		p.Assignments[i] = cluster.Assignment{Start: w.start, Rules: rs}
	}
	return p, nil
}

// factorWorkers splits k into kd×kr with kr as small as possible (rule sets
// are small, §VI-D) while kr > 1 whenever k is not prime and the rule count
// allows it.
func factorWorkers(k, nRules int) (kd, kr int) {
	for _, cand := range []int{2, 3} {
		if k%cand == 0 && k > cand && cand <= nRules {
			return k / cand, cand
		}
	}
	return k, 1
}

// PreExchangeOR is the output replication of §III before any exchange: each
// worker closes its own assignment alone with the forward engine (OR is a
// property of the derived triples, not of the engine), and the summed
// closure sizes are related to their union — Table I's OR column.
func (p *Plan) PreExchangeOR() float64 {
	sizes := make([]int, len(p.Assignments))
	union := rdf.NewGraph()
	for i, a := range p.Assignments {
		g := a.Graph()
		reason.Forward{}.Materialize(g, a.Rules)
		sizes[i] = g.Len()
		union.Union(g)
	}
	return partition.OutputReplication(sizes, union.Len())
}

// ownerTable turns a policy's ownership map into the dense owner table.
func ownerTable(owner map[rdf.ID]int) []int32 {
	var last rdf.ID
	for id := range owner {
		last = max(last, id)
	}
	tab := make([]int32, int(last)+1)
	for id := range tab {
		tab[id] = -1
	}
	for id, p := range owner {
		tab[id] = int32(p)
	}
	return tab
}

// ownerRouter implements the routing rule of §IV for the data and hybrid
// strategies: a tuple goes to the owner of its subject and the owner of its
// object — under the hybrid strategy, to the rule groups on those slices
// that have a body atom it matches — never back to the sender. Terms without
// an owner (schema resources, replicated everywhere) route nowhere. Worker w
// holds data slice w/kr and rule group w%kr.
//
// An answer is keyed on two halves, each a slice and a bit mask of its
// groups, and every possible answer is a window of one flat array built up
// front; the rule groups answer as a mask too, so routing a tuple
// allocates nothing.
type ownerRouter struct {
	owner  []int32
	kr     int
	groups *rulepart.Router // the rule groups' router; nil outside the hybrid strategy
	n      int              // halves: slices << kr
	flat   []int
	off    []int32 // answer (a, b) is flat[off[a·n+b]:off[a·n+b+1]]
}

// NewOwnerRouter routes by an owner table (Plan.Owner's layout) across k
// data-partitioned workers.
func NewOwnerRouter(owner []int32, k int) cluster.Router {
	return homeRouter{newOwnerRouter(owner, k, 1, nil)}
}

// homeRouter is the data strategy's router, which also names each triple's
// home (cluster.Homes): the owner of its subject, else of its object. Under
// the hybrid strategy a triple's rule group is not fixed by ownership, so
// the grid's ownerRouter names none.
type homeRouter struct{ *ownerRouter }

// Home implements cluster.Homes.
func (r homeRouter) Home(t rdf.Triple) int {
	if p := r.ownerOf(t.S); p >= 0 {
		return p
	}
	return r.ownerOf(t.O)
}

func newOwnerRouter(owner []int32, kd, kr int, groups *rulepart.Router) *ownerRouter {
	r := &ownerRouter{owner: owner, kr: kr, groups: groups, n: kd << kr}
	r.off = make([]int32, 1, r.n*r.n+1)
	for a := 0; a < r.n; a++ {
		for b := 0; b < r.n; b++ {
			for _, h := range [2]int{a, b} {
				for g := 0; g < kr; g++ {
					if h>>g&1 == 1 {
						r.flat = append(r.flat, (h>>kr)*kr+g)
					}
				}
			}
			r.off = append(r.off, int32(len(r.flat)))
		}
	}
	return r
}

// ownerOf is the owner of id, or -1.
func (r *ownerRouter) ownerOf(id rdf.ID) int {
	if int(id) >= len(r.owner) {
		return -1
	}
	return int(r.owner[id])
}

// Destinations implements cluster.Router. Callers only read the result.
func (r *ownerRouter) Destinations(t rdf.Triple, from int) []int {
	p, q := r.ownerOf(t.S), r.ownerOf(t.O)
	if p < 0 {
		p, q = q, -1
	}
	if p < 0 {
		return nil
	}
	all := 1<<r.kr - 1
	if r.groups != nil {
		all = int(r.groups.Mask(t))
	}
	mp, mq := all, all
	if q < 0 || q == p {
		q, mq = 0, 0
	}
	if from >= 0 {
		if bit := 1 << (from % r.kr); from/r.kr == p {
			mp &^= bit
		} else if from/r.kr == q {
			mq &^= bit
		}
	}
	i := (p<<r.kr|mp)*r.n + (q<<r.kr | mq)
	return r.flat[r.off[i]:r.off[i+1]:r.off[i+1]]
}

// NewEngine is the engine for kind; threads fans rule firing out inside
// each worker (Config.Threads).
func NewEngine(kind EngineKind, threads int) (reason.Engine, error) {
	switch kind {
	case ForwardEngine, "":
		return reason.Forward{Threads: threads}, nil
	case HybridEngine:
		return reason.Hybrid{Threads: threads}, nil
	case HybridSharedEngine:
		return reason.Hybrid{SharedTable: true, Threads: threads}, nil
	case ReteEngine:
		return reason.Rete{}, nil
	default:
		return nil, fmt.Errorf("core: unknown engine %q", kind)
	}
}

// policyFor is the ownership policy for kind. seed drives the graph
// partitioner; key is the dataset's locality key, which the domain policy
// needs.
func policyFor(kind PolicyKind, seed int64, key func(rdf.Term) string) (partition.Policy, error) {
	switch kind {
	case GraphPolicy, "":
		// A tight balance target: the slowest partition bounds the round
		// time, so 2% slack beats the partitioner's default 5%.
		return partition.GraphPolicy{Opts: gpart.Options{Seed: seed, Imbalance: 0.02, RefinePasses: 12}}, nil
	case HashPolicy:
		return partition.HashPolicy{}, nil
	case DomainPolicy:
		if key == nil {
			return nil, fmt.Errorf("core: the domain policy needs the dataset's locality key")
		}
		return partition.DomainPolicy{KeyFunc: key}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", kind)
	}
}

// NewStreamAssigner is the one-pass form of the policy for kind (§III-A):
// only hash and domain partition a stream; the graph policy needs the
// whole graph.
func NewStreamAssigner(kind PolicyKind, k int, key func(rdf.Term) string) (partition.StreamAssigner, error) {
	switch kind {
	case HashPolicy:
		return partition.HashAssigner{K: k}, nil
	case DomainPolicy:
		return partition.NewDomainAssigner(k, key), nil
	default:
		return nil, fmt.Errorf("core: policy %q cannot partition a stream (graph partitioning needs the whole graph)", kind)
	}
}
