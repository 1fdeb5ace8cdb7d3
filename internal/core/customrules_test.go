package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"powl/internal/cluster"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rules"
)

func customDataset(t *testing.T, nChains, chainLen int) *datagen.Dataset {
	t.Helper()
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p := dict.InternIRI("http://t/p")
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < nChains; c++ {
		prev := dict.InternIRI(fmt.Sprintf("http://t/c%d/n0", c))
		for i := 1; i < chainLen; i++ {
			cur := dict.InternIRI(fmt.Sprintf("http://t/c%d/n%d", c, i))
			g.Add(rdf.Triple{S: prev, P: p, O: cur})
			prev = cur
		}
		// A few random extra edges inside the chain's namespace.
		for i := 0; i < 3; i++ {
			a := dict.InternIRI(fmt.Sprintf("http://t/c%d/n%d", c, rng.Intn(chainLen)))
			b := dict.InternIRI(fmt.Sprintf("http://t/c%d/n%d", c, rng.Intn(chainLen)))
			g.Add(rdf.Triple{S: a, P: p, O: b})
		}
	}
	return &datagen.Dataset{Name: "chains", Dict: dict, Graph: g}
}

const customRuleText = `
@prefix t: <http://t/> .
[trans: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]
[sym:   (?x t:p ?y) -> (?y t:q ?x)]
[chain: (?x t:q ?y) (?y t:q ?z) -> (?x t:r ?z)]
`

func TestMaterializeRulesMatchesSerial(t *testing.T) {
	ds := customDataset(t, 4, 8)
	rs := rules.MustParse(customRuleText, ds.Dict)
	serial, err := MaterializeRules(ds, rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Inferred == 0 {
		t.Fatal("custom rules inferred nothing")
	}
	for _, cfg := range []Config{
		{Workers: 3, Strategy: DataPartitioning, Policy: GraphPolicy, Seed: 42},
		{Workers: 3, Strategy: DataPartitioning, Policy: HashPolicy, Seed: 42},
		{Workers: 2, Strategy: RulePartitioning, Seed: 42},
		{Workers: 4, Strategy: HybridPartitioning, Policy: GraphPolicy, Seed: 42},
	} {
		res, err := MaterializeRules(ds, rs, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Strategy, cfg.Policy, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s/%s: closure %d != serial %d; missing=%v",
				cfg.Strategy, cfg.Policy, res.Graph.Len(), serial.Graph.Len(),
				serial.Graph.Diff(res.Graph))
		}
	}
}

// TestMaterializeRulesHonoursConfig: a custom rule set runs with the whole
// Config. With recovery armed, worker 1 fail-stopped at round 1 and a
// journal attached, the run still closes to the serial fixpoint, and the
// journal shows the death and the adoption.
func TestMaterializeRulesHonoursConfig(t *testing.T) {
	ds := customDataset(t, 4, 8)
	rs := rules.MustParse(customRuleText, ds.Dict)
	serial, err := MaterializeRules(ds, rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemSink{}
	res, err := MaterializeRules(ds, rs, Config{
		Workers: 3, Policy: HashPolicy, Seed: 42,
		Obs:      obs.NewRun(sink, nil),
		Recovery: &cluster.RecoveryConfig{},
		Inject:   []*faultinject.Injector{nil, faultinject.New(faultinject.Config{CrashRound: 1}), nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(serial.Graph) {
		t.Fatalf("closure %d != serial %d after recovery", res.Graph.Len(), serial.Graph.Len())
	}
	seen := map[string]bool{}
	for _, e := range sink.Events() {
		seen[e.Type] = true
	}
	for _, want := range []string{obs.EvDeath, obs.EvAdopt} {
		if !seen[want] {
			t.Errorf("journal has no %s event", want)
		}
	}
}

func TestMaterializeRulesRejectsUnsafeRules(t *testing.T) {
	ds := customDataset(t, 1, 3)
	x, y, z := rules.Var("x"), rules.Var("y"), rules.Var("z")
	p := rules.Const(ds.Dict.InternIRI("http://t/p"))
	unsafe := []rules.Rule{{
		Name: "unsafe",
		Body: []rules.Atom{{S: x, P: p, O: y}},
		Head: []rules.Atom{{S: x, P: p, O: z}}, // z unbound
	}}
	if _, err := MaterializeRules(ds, unsafe, Config{Workers: 2}); err == nil {
		t.Fatal("unsafe rule accepted")
	}
}

func TestMaterializeRulesRejectsNonSingleJoinForDataStrategy(t *testing.T) {
	ds := customDataset(t, 1, 4)
	rs := rules.MustParse(`
@prefix t: <http://t/> .
[cart: (?a t:p ?b) (?c t:p ?d) -> (?a t:r ?d)]
[loop: (?a t:r ?b) -> (?b t:s ?a)]
`, ds.Dict)
	for _, strategy := range []Strategy{DataPartitioning, HybridPartitioning} {
		_, err := MaterializeRules(ds, rs, Config{Workers: 2, Strategy: strategy})
		if err == nil || !strings.Contains(err.Error(), "subject/object position") {
			t.Fatalf("cartesian rule accepted under %s partitioning: %v", strategy, err)
		}
	}
	// The same rule set is legal under rule partitioning (full data on
	// every worker).
	serial, err := MaterializeRules(ds, rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaterializeRules(ds, rs, Config{Workers: 2, Strategy: RulePartitioning})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(serial.Graph) {
		t.Fatal("rule partitioning closure mismatch on cartesian rule")
	}
}

func TestMaterializeRulesRejectsPredicatePositionJoin(t *testing.T) {
	ds := customDataset(t, 1, 4)
	// rdfs7-style: the join variable ?p occurs as atom 2's predicate —
	// ownership cannot co-locate these tuples.
	rs := rules.MustParse(`
@prefix t: <http://t/> .
[sp: (?p t:sub ?q) (?x ?p ?y) -> (?x ?q ?y)]
`, ds.Dict)
	_, err := MaterializeRules(ds, rs, Config{Workers: 2, Strategy: DataPartitioning})
	if err == nil {
		t.Fatal("predicate-position join accepted under data partitioning")
	}
}

// TestSharesOwnedVariable pins the single-join test the plan applies under
// the data and hybrid strategies: some variable must occur in the subject or
// object position of every body atom.
func TestSharesOwnedVariable(t *testing.T) {
	dict := rdf.NewDict()
	p := rules.Const(dict.InternIRI("http://t/p"))
	x, y, z, w := rules.Var("x"), rules.Var("y"), rules.Var("z"), rules.Var("w")
	cases := []struct {
		name string
		r    rules.Rule
		want bool
	}{
		{"empty body", rules.Rule{}, true},
		{"single atom", rules.Rule{Body: []rules.Atom{{S: x, P: p, O: y}}}, true},
		{"shared subject", rules.Rule{Body: []rules.Atom{{S: x, P: p, O: y}, {S: x, P: p, O: z}}}, true},
		{"chained S-O", rules.Rule{Body: []rules.Atom{{S: x, P: p, O: y}, {S: y, P: p, O: z}}}, true},
		{"disjoint", rules.Rule{Body: []rules.Atom{{S: x, P: p, O: y}, {S: z, P: p, O: w}}}, false},
		{"predicate join", rules.Rule{Body: []rules.Atom{{S: x, P: p, O: y}, {S: z, P: y, O: w}}}, false},
		{"triple shared", rules.Rule{Body: []rules.Atom{
			{S: x, P: p, O: y}, {S: x, P: p, O: z}, {S: w, P: p, O: x},
		}}, true},
	}
	for _, c := range cases {
		if got := c.r.IsSingleJoin(); got != c.want {
			t.Errorf("%s: IsSingleJoin = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaterializeRulesSimulatedAndTransports(t *testing.T) {
	ds := customDataset(t, 3, 6)
	rs := rules.MustParse(customRuleText, ds.Dict)
	serial, err := MaterializeRules(ds, rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []TransportKind{MemTransport, FileTransport, TCPTransport} {
		res, err := MaterializeRules(ds, rs, Config{
			Workers: 3, Strategy: DataPartitioning, Policy: HashPolicy,
			Transport: tr, Simulate: tr == MemTransport, Seed: 42,
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s: closure mismatch", tr)
		}
	}
}
