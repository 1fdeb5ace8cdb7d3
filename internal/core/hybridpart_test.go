package core

import (
	"testing"

	"powl/internal/datagen"
)

// TestHybridPartitioningMatchesSerial: the future-work combined strategy
// produces the exact serial closure for several worker grids.
func TestHybridPartitioningMatchesSerial(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7, DeptsPerUniv: 4})
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 6, 8} {
		res, err := Materialize(ds, Config{
			Workers:  k,
			Strategy: HybridPartitioning,
			Policy:   GraphPolicy,
			Seed:     42,
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			missing := serial.Graph.Diff(res.Graph)
			for i, tr := range missing {
				if i >= 5 {
					break
				}
				t.Errorf("missing: %s", ds.Dict.FormatTriple(tr))
			}
			t.Fatalf("k=%d: hybrid closure %d != serial %d", k, res.Graph.Len(), serial.Graph.Len())
		}
		if res.Metrics == nil {
			t.Errorf("k=%d: hybrid strategy should report data-partition metrics", k)
		}
	}
}

func TestHybridPartitioningAllPolicies(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 3, Seed: 7})
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []PolicyKind{GraphPolicy, HashPolicy, DomainPolicy} {
		res, err := Materialize(ds, Config{
			Workers: 6, Strategy: HybridPartitioning, Policy: pol, Seed: 42,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s: closure mismatch", pol)
		}
	}
}

func TestFactorWorkers(t *testing.T) {
	cases := []struct {
		k, nRules, kd, kr int
	}{
		{8, 100, 4, 2},
		{6, 100, 3, 2},
		{9, 100, 3, 3},
		{7, 100, 7, 1}, // prime: degenerate to pure data partitioning
		{4, 1, 4, 1},   // too few rules to split
		{1, 100, 1, 1},
	}
	for _, c := range cases {
		kd, kr := factorWorkers(c.k, c.nRules)
		if kd != c.kd || kr != c.kr {
			t.Errorf("factorWorkers(%d, %d) = (%d,%d), want (%d,%d)", c.k, c.nRules, kd, kr, c.kd, c.kr)
		}
		if kd*kr != c.k {
			t.Errorf("factorWorkers(%d, %d) does not multiply back", c.k, c.nRules)
		}
	}
}

// TestHybridPartitioningSimulated exercises the simulated-time path and the
// reporting fields.
func TestHybridPartitioningSimulated(t *testing.T) {
	ds := datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7, DeptsPerUniv: 4})
	res, err := Materialize(ds, Config{
		Workers: 4, Strategy: HybridPartitioning, Policy: HashPolicy,
		Engine: ForwardEngine, Simulate: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || len(res.RoundStats) == 0 {
		t.Error("simulated hybrid run missing timings")
	}
	if res.RuleCut < 0 {
		t.Error("negative rule cut")
	}
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(serial.Graph) {
		t.Fatal("closure mismatch")
	}
}
