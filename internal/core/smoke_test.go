package core

import (
	"testing"

	"powl/internal/datagen"
)

// TestSmoke_ParallelMatchesSerial is the foundational invariant: for every
// strategy × policy, the union of the workers' outputs equals the serial
// forward closure.
func TestSmoke_ParallelMatchesSerial(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
	t.Logf("lubm tiny: %d triples", ds.Graph.Len())

	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial closure: %d triples (%d inferred)", serial.Graph.Len(), serial.Inferred)
	if serial.Inferred == 0 {
		t.Fatal("serial run inferred nothing; dataset or rules are broken")
	}

	hybrid, err := Materialize(ds, Config{Engine: HybridEngine})
	if err != nil {
		t.Fatal(err)
	}
	if !hybrid.Graph.Equal(serial.Graph) {
		only := hybrid.Graph.Diff(serial.Graph)
		missing := serial.Graph.Diff(hybrid.Graph)
		for i, tr := range only {
			if i >= 5 {
				break
			}
			t.Errorf("hybrid-only: %s", ds.Dict.FormatTriple(tr))
		}
		for i, tr := range missing {
			if i >= 5 {
				break
			}
			t.Errorf("hybrid-missing: %s", ds.Dict.FormatTriple(tr))
		}
		t.Fatalf("hybrid closure %d != forward closure %d", hybrid.Graph.Len(), serial.Graph.Len())
	}

	for _, cfg := range []Config{
		{Workers: 3, Strategy: DataPartitioning, Policy: GraphPolicy},
		{Workers: 3, Strategy: DataPartitioning, Policy: HashPolicy},
		{Workers: 3, Strategy: DataPartitioning, Policy: DomainPolicy},
		{Workers: 3, Strategy: RulePartitioning},
	} {
		res, err := Materialize(ds, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Strategy, cfg.Policy, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			missing := serial.Graph.Diff(res.Graph)
			for i, tr := range missing {
				if i >= 10 {
					break
				}
				t.Errorf("%s/%s missing: %s", cfg.Strategy, cfg.Policy, ds.Dict.FormatTriple(tr))
			}
			extra := res.Graph.Diff(serial.Graph)
			for i, tr := range extra {
				if i >= 10 {
					break
				}
				t.Errorf("%s/%s extra: %s", cfg.Strategy, cfg.Policy, ds.Dict.FormatTriple(tr))
			}
			t.Fatalf("%s/%s: parallel %d != serial %d (rounds=%d)",
				cfg.Strategy, cfg.Policy, res.Graph.Len(), serial.Graph.Len(), res.Rounds)
		}
		t.Logf("%s/%s ok: rounds=%d inferred=%d", cfg.Strategy, cfg.Policy, res.Rounds, res.Inferred)
	}
}
