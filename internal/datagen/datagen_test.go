package datagen

import (
	"strings"
	"testing"

	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/vocab"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func() *Dataset{
		"lubm": func() *Dataset { return LUBM(LUBMConfig{Universities: 2, Seed: 9}) },
		"uobm": func() *Dataset { return UOBM(UOBMConfig{Universities: 2, Seed: 9}) },
		"mdc":  func() *Dataset { return MDC(MDCConfig{Fields: 2, Seed: 9}) },
	}
	for name, gen := range gens {
		a, b := gen(), gen()
		if a.Graph.Len() != b.Graph.Len() {
			t.Fatalf("%s: sizes differ across runs: %d vs %d", name, a.Graph.Len(), b.Graph.Len())
		}
		// Compare by serialized term triples (IDs are dict-order dependent
		// but generation order is deterministic, so IDs align too).
		for _, tr := range a.Graph.SortedTriples() {
			if !b.Graph.Has(tr) {
				t.Fatalf("%s: triple sets differ", name)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	a := LUBM(LUBMConfig{Universities: 2, Seed: 1})
	b := LUBM(LUBMConfig{Universities: 2, Seed: 2})
	if a.Graph.Len() == b.Graph.Len() {
		diff := 0
		for _, tr := range a.Graph.Triples() {
			if !b.Graph.Has(tr) {
				diff++
			}
		}
		if diff == 0 {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestScalesGrow(t *testing.T) {
	small := LUBM(LUBMConfig{Universities: 1, Seed: 3}).Graph.Len()
	big := LUBM(LUBMConfig{Universities: 4, Seed: 3}).Graph.Len()
	if big < 3*small {
		t.Fatalf("LUBM-4 (%d) not ≳4x LUBM-1 (%d)", big, small)
	}
	if MDC(MDCConfig{Fields: 4, Seed: 3}).Graph.Len() <= MDC(MDCConfig{Fields: 1, Seed: 3}).Graph.Len() {
		t.Fatal("MDC does not grow with fields")
	}
	if UOBM(UOBMConfig{Universities: 4, Seed: 3}).Graph.Len() <= UOBM(UOBMConfig{Universities: 1, Seed: 3}).Graph.Len() {
		t.Fatal("UOBM does not grow with universities")
	}
}

// TestDatasetsProduceInferences compiles each dataset's ontology and checks
// the hallmark inferences appear in the closure.
func TestDatasetsProduceInferences(t *testing.T) {
	ds := LUBM(LUBMConfig{Universities: 1, Seed: 4, DeptsPerUniv: 2})
	cp := owlhorst.Compile(ds.Dict, ds.Graph)
	g := ds.Graph.Clone()
	g.Union(cp.Schema)
	n := (reason.Forward{}).Materialize(g, cp.InstanceRules)
	if n == 0 {
		t.Fatal("LUBM closure added nothing")
	}
	typ, _ := ds.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: vocab.RDFType})
	chair, ok := ds.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/lubm#Chair"})
	if !ok {
		t.Fatal("Chair class missing from LUBM TBox")
	}
	if len(g.Match(rdf.Wildcard, typ, chair)) == 0 {
		t.Error("no Chair inferred (someValuesFrom broken)")
	}
	person, _ := ds.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/lubm#Person"})
	if len(g.Match(rdf.Wildcard, typ, person)) == 0 {
		t.Error("no Person inferred (subclass chain broken)")
	}

	mdc := MDC(MDCConfig{Fields: 1, Seed: 4})
	mcp := owlhorst.Compile(mdc.Dict, mdc.Graph)
	mg := mdc.Graph.Clone()
	mg.Union(mcp.Schema)
	(reason.Forward{}).Materialize(mg, mcp.InstanceRules)
	mtyp, _ := mdc.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: vocab.RDFType})
	instr, ok := mdc.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/mdc#InstrumentedDevice"})
	if !ok {
		t.Fatal("InstrumentedDevice missing from MDC TBox")
	}
	if len(mg.Match(rdf.Wildcard, mtyp, instr)) == 0 {
		t.Error("no InstrumentedDevice inferred")
	}
	// Deep partOf chains: the closure must contain sensor→field edges.
	partOf, _ := mdc.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/mdc#partOf"})
	field, _ := mdc.Dict.Lookup(rdf.Term{Kind: rdf.IRI, Value: "http://benchmark.powl/mdc#field0"})
	chain := mg.Match(rdf.Wildcard, partOf, field)
	base := mdc.Graph.Match(rdf.Wildcard, partOf, field)
	if len(chain) <= len(base) {
		t.Error("transitive partOf closure did not extend the chain")
	}
}

func TestDomainKeys(t *testing.T) {
	ds := LUBM(LUBMConfig{Universities: 3, Seed: 5, DeptsPerUniv: 2})
	keys := map[string]int{}
	unkeyed := 0
	for id := range ds.Graph.Resources() {
		term := ds.Dict.Term(id)
		key := ds.DomainKey(term)
		if key == "" {
			unkeyed++
			continue
		}
		if !strings.HasPrefix(key, "univ") {
			t.Fatalf("unexpected key %q for %v", key, term)
		}
		keys[key]++
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 university keys, got %v", keys)
	}
	// Only schema-level resources (classes, properties) lack a key.
	total := len(ds.Graph.Resources())
	if unkeyed > total/5 {
		t.Errorf("%d of %d resources unkeyed", unkeyed, total)
	}

	mdc := MDC(MDCConfig{Fields: 2, Seed: 5})
	mkeys := map[string]bool{}
	for id := range mdc.Graph.Resources() {
		if k := mdc.DomainKey(mdc.Dict.Term(id)); k != "" {
			mkeys[k] = true
		}
	}
	if len(mkeys) != 2 {
		t.Fatalf("expected 2 field keys, got %v", mkeys)
	}
}

func TestMarkerKey(t *testing.T) {
	cases := []struct{ name, s, marker, want string }{
		{"in an IRI", "http://x/univ12/dept3", "univ", "univ12"},
		{"marker absent", "no marker here", "univ", ""},
		{"no digits after marker", "http://x/university", "univ", ""},
		{"marker at the end", "http://x/univ", "univ", ""},
		{"two occurrences: the first decides", "http://x/univ1/univ2", "univ", "univ1"},
		{"in a literal", `"prof1 dept2 univ3"`, "univ", "univ3"},
		{"another marker", "http://x/field0/well1", "field", "field0"},
	}
	for _, c := range cases {
		if got := MarkerKey(c.marker)(rdf.Term{Kind: rdf.IRI, Value: c.s}); got != c.want {
			t.Errorf("%s: MarkerKey(%q) of %q = %q, want %q", c.name, c.marker, c.s, got, c.want)
		}
	}
}

// TestUOBMIsDenserThanLUBM checks the structural property the paper's
// UOBM result rests on: a much larger fraction of cross-locality edges.
func TestUOBMIsDenserThanLUBM(t *testing.T) {
	crossFraction := func(ds *Dataset) float64 {
		cross, total := 0, 0
		for _, tr := range ds.Graph.Triples() {
			ks := ds.DomainKey(ds.Dict.Term(tr.S))
			ko := ds.DomainKey(ds.Dict.Term(tr.O))
			if ks == "" || ko == "" {
				continue
			}
			total++
			if ks != ko {
				cross++
			}
		}
		return float64(cross) / float64(total)
	}
	lubm := crossFraction(LUBM(LUBMConfig{Universities: 4, Seed: 6}))
	uobm := crossFraction(UOBM(UOBMConfig{Universities: 4, Seed: 6}))
	t.Logf("cross-university edge fraction: lubm=%.4f uobm=%.4f", lubm, uobm)
	if uobm < 5*lubm {
		t.Errorf("UOBM cross fraction %.4f not ≫ LUBM's %.4f", uobm, lubm)
	}
	if uobm < 0.10 {
		t.Errorf("UOBM cross fraction %.4f too low to resist partitioning", uobm)
	}
}

func TestMinimumScales(t *testing.T) {
	// Scale < 1 clamps to 1 rather than panicking or returning empty data.
	if LUBM(LUBMConfig{Universities: 0, Seed: 1}).Graph.Len() == 0 {
		t.Error("LUBM-0 empty")
	}
	if UOBM(UOBMConfig{}).Graph.Len() == 0 {
		t.Error("UOBM-0 empty")
	}
	if MDC(MDCConfig{}).Graph.Len() == 0 {
		t.Error("MDC-0 empty")
	}
}
