package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in workloads.go are
// what the command does. They must say the same thing.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "cmd/owlbench/run.sh"}) ||
		!reflect.DeepEqual(doc.Paths, []string{"cmd/owlbench"}) || doc.RunSeconds != runSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q, the command has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d is %+v, the command has %+v", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded: %v)", kind, s.name, g.Bound, s.bound, bounded)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
