package owlhorst

import (
	"testing"

	"powl/internal/datagen"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// TestSplitCoversEverything: schema triples + instance triples partition
// the input graph exactly — nothing lost, nothing duplicated — for all
// three generators.
func TestSplitCoversEverything(t *testing.T) {
	datasets := []*datagen.Dataset{
		datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3}),
		datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7}),
	}
	for _, ds := range datasets {
		split := newSchemaSplit(ds.Dict)
		instance := SplitInstance(ds.Dict, ds.Graph)
		nSchema := 0
		for _, tr := range ds.Graph.Triples() {
			if split.isSchema(tr) {
				nSchema++
			}
		}
		if nSchema+len(instance) != ds.Graph.Len() {
			t.Errorf("%s: schema %d + instance %d != total %d",
				ds.Name, nSchema, len(instance), ds.Graph.Len())
		}
		// No instance triple classifies as schema.
		for _, tr := range instance {
			if split.isSchema(tr) {
				t.Errorf("%s: instance triple classified as schema: %s",
					ds.Name, ds.Dict.FormatTriple(tr))
				break
			}
		}
	}
}

// TestSchemaElementsDisjointFromDataResources: ordinary entity IRIs must
// never be classified as schema elements (that would exempt them from
// ownership and silently shrink the partitioning problem).
func TestSchemaElementsDisjointFromDataResources(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
	cp := Compile(ds.Dict, ds.Graph)
	elems := SchemaElements(ds.Dict, cp.Schema)
	instance := SplitInstance(ds.Dict, ds.Graph)

	// Count how many instance subject/object occurrences are schema
	// elements; only type-objects (classes) should qualify.
	typ := ds.Dict.InternIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	for _, tr := range instance {
		if _, isSchema := elems[tr.S]; isSchema {
			t.Errorf("instance subject is a schema element: %s", ds.Dict.FormatTriple(tr))
			break
		}
		if _, isSchema := elems[tr.O]; isSchema && tr.P != typ {
			// Degrees/accreditors etc. are plain entities; only class IRIs
			// in type position should be schema.
			t.Errorf("non-type instance object is a schema element: %s", ds.Dict.FormatTriple(tr))
			break
		}
	}
}

// TestCompileIsIdempotent: compiling twice yields the same rule set and
// schema closure.
func TestCompileIsIdempotent(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 1, Seed: 7})
	a := Compile(ds.Dict, ds.Graph)
	b := Compile(ds.Dict, ds.Graph)
	if len(a.InstanceRules) != len(b.InstanceRules) {
		t.Fatalf("rule counts differ: %d vs %d", len(a.InstanceRules), len(b.InstanceRules))
	}
	if !a.Schema.Equal(b.Schema) {
		t.Fatal("schema closures differ")
	}
	for i := range a.InstanceRules {
		if a.InstanceRules[i].Name != b.InstanceRules[i].Name {
			t.Fatalf("rule order differs at %d: %s vs %s",
				i, a.InstanceRules[i].Name, b.InstanceRules[i].Name)
		}
	}
}

// TestRuleFormatRoundTrip: every compiled rule survives Format → Parse (the
// contract the shared-filesystem cluster's rule file relies on).
func TestRuleFormatRoundTrip(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2})
	cp := Compile(ds.Dict, ds.Graph)
	var text string
	for _, r := range cp.InstanceRules {
		text += r.Format(ds.Dict) + "\n"
	}
	dict2 := rdf.NewDict()
	reparsed, err := rules.Parse(text, dict2)
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if len(reparsed) != len(cp.InstanceRules) {
		t.Fatalf("re-parsed %d rules, want %d", len(reparsed), len(cp.InstanceRules))
	}
	for i := range reparsed {
		if reparsed[i].Name != cp.InstanceRules[i].Name {
			t.Fatalf("rule %d name changed: %q vs %q", i, reparsed[i].Name, cp.InstanceRules[i].Name)
		}
		if len(reparsed[i].Body) != len(cp.InstanceRules[i].Body) ||
			len(reparsed[i].Head) != len(cp.InstanceRules[i].Head) {
			t.Fatalf("rule %s shape changed", reparsed[i].Name)
		}
	}
}
