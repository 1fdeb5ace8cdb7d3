package core

import (
	"strings"
	"testing"
	"time"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
)

// TestHybridEngineSuperLinearCost pins the cost profile the reproduction
// depends on (§VI-A): the hybrid engine's per-triple time must grow with
// dataset size on LUBM (worst-case searches) and stay roughly flat on UOBM.
func TestHybridEngineSuperLinearCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Per-triple cost of each dataset, best of three interleaved passes: the
	// host's speed drifts by tens of percent between seconds, and a pass
	// over both sizes inside one drift window keeps their ratio meaningful.
	measure := func(small, big *datagen.Dataset) (float64, float64) {
		best := [2]float64{}
		for pass := 0; pass < 3; pass++ {
			for i, ds := range []*datagen.Dataset{small, big} {
				// One worker's reason time is the engine call alone; the
				// run's Elapsed would add the linear cost of cloning the
				// start graph and running the round loop.
				res, err := Materialize(ds, Config{Engine: HybridEngine})
				if err != nil {
					t.Fatal(err)
				}
				if s := res.PerWorker[0].Reason.Seconds() / float64(ds.Graph.Len()); pass == 0 || s < best[i] {
					best[i] = s
				}
			}
		}
		return best[0], best[1]
	}
	lubmSmall, lubmBig := measure(datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7}),
		datagen.LUBM(datagen.LUBMConfig{Universities: 10, Seed: 7}))
	t.Logf("LUBM per-triple reason time: %.1fµs -> %.1fµs", lubmSmall*1e6, lubmBig*1e6)
	if lubmBig < 1.25*lubmSmall {
		t.Errorf("LUBM per-triple cost should grow ≥1.25x from 1 to 10 universities; got %.1fµs -> %.1fµs",
			lubmSmall*1e6, lubmBig*1e6)
	}
	uobmSmall, uobmBig := measure(datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 6, Seed: 7}))
	if uobmBig > 2*uobmSmall {
		t.Errorf("UOBM per-triple cost should stay near-flat; got %.1fµs -> %.1fµs",
			uobmSmall*1e6, uobmBig*1e6)
	}
}

// TestAvfRulesDriveTheWorstCase verifies the mechanism: removing the
// compiled allValuesFrom rules removes a large share of LUBM's serial
// hybrid time.
func TestAvfRulesDriveTheWorstCase(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 6, Seed: 7})
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	run := func(rs []rules.Rule) time.Duration {
		g := rdf.NewGraph()
		g.AddAll(owlhorst.SplitInstance(ds.Dict, ds.Graph))
		g.Union(compiled.Schema)
		start := time.Now()
		reason.Hybrid{}.Materialize(g, rs)
		return time.Since(start)
	}
	var noAvf []rules.Rule
	for _, r := range compiled.InstanceRules {
		if strings.HasPrefix(r.Name, "avf-") {
			continue
		}
		noAvf = append(noAvf, r)
	}
	// Best of three interleaved passes, as in
	// TestHybridEngineSuperLinearCost: the host's speed drifts between
	// seconds, and one pass over both rule sets inside one drift window
	// keeps their ratio meaningful.
	var full, bare time.Duration
	for pass := 0; pass < 3; pass++ {
		if d := run(compiled.InstanceRules); pass == 0 || d < full {
			full = d
		}
		if d := run(noAvf); pass == 0 || d < bare {
			bare = d
		}
	}
	share := 1 - bare.Seconds()/full.Seconds()
	t.Logf("avf scan share of serial time: %.0f%% (%v vs %v)", share*100, full, bare)
	if share < 0.15 {
		t.Errorf("avf scan share %.0f%% too small to produce the paper's super-linear speedups", share*100)
	}
}

// TestRoundStatsPopulated checks the simulated runner's per-round maxima.
func TestRoundStatsPopulated(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7, DeptsPerUniv: 4})
	res, err := Materialize(ds, Config{
		Workers: 4, Strategy: DataPartitioning, Policy: GraphPolicy,
		Engine: ForwardEngine, Simulate: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundStats) != res.Rounds {
		t.Fatalf("RoundStats has %d entries for %d rounds", len(res.RoundStats), res.Rounds)
	}
	if res.RoundStats[0].MaxWork <= 0 {
		t.Error("round 0 has no work recorded")
	}
	if last := res.RoundStats[len(res.RoundStats)-1]; last.Sent != 0 {
		t.Errorf("final round sent %d tuples; termination requires 0", last.Sent)
	}
	var sum time.Duration
	for _, rs := range res.RoundStats {
		sum += rs.MaxWork + rs.MaxRecv
	}
	if sum > res.Elapsed {
		t.Errorf("round maxima (%v) exceed elapsed (%v)", sum, res.Elapsed)
	}
}

// TestSpeedupShapes is a lightweight end-to-end check of the three Fig-1
// shapes at small scale: LUBM/MDC parallelize well (speedup comfortably
// above half of k), UOBM poorly (well below).
func TestSpeedupShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	run := func(ds *datagen.Dataset, k int) float64 {
		cfg := Config{Strategy: DataPartitioning, Policy: GraphPolicy,
			Engine: HybridEngine, Simulate: true, Seed: 42}
		serial, err := Materialize(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = k
		res, err := Materialize(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s: closure mismatch", ds.Name)
		}
		return serial.Elapsed.Seconds() / res.Elapsed.Seconds()
	}
	if s := run(datagen.LUBM(datagen.LUBMConfig{Universities: 6, Seed: 7}), 4); s < 2 {
		t.Errorf("LUBM speedup at k=4 = %.2f; expected well above 2", s)
	}
	if s := run(datagen.UOBM(datagen.UOBMConfig{Universities: 4, Seed: 7}), 4); s > 3 {
		t.Errorf("UOBM speedup at k=4 = %.2f; expected clearly sub-linear", s)
	}
}
