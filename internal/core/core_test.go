package core

import (
	"slices"
	"strings"
	"testing"

	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/gpart"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rulepart"
	"powl/internal/rules"
)

func tinyLUBM() *datagen.Dataset {
	return datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2})
}

func TestUnknownConfigValuesRejected(t *testing.T) {
	ds := tinyLUBM()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"engine", Config{Workers: 2, Engine: "magic"}, "unknown engine"},
		{"policy", Config{Workers: 2, Policy: "nope"}, "unknown policy"},
		{"transport", Config{Workers: 2, Transport: "pigeon"}, "unknown transport"},
		{"strategy", Config{Workers: 2, Strategy: "vibes"}, "unknown strategy"},
	}
	for _, c := range cases {
		_, err := Materialize(ds, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestMaterializeSerialUnknownEngine checks that the one-worker path, which
// skips partitioning, still rejects an unknown engine.
func TestMaterializeSerialUnknownEngine(t *testing.T) {
	if _, err := Materialize(tinyLUBM(), Config{Engine: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("error = %v, want unknown engine", err)
	}
}

func TestDomainPolicyRequiresDatasetKey(t *testing.T) {
	ds := tinyLUBM()
	ds.DomainKey = nil
	if _, err := Materialize(ds, Config{Workers: 2, Policy: DomainPolicy}); err == nil {
		t.Fatal("domain policy without KeyFunc accepted")
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers != 1 || cfg.Strategy != DataPartitioning || cfg.Policy != GraphPolicy ||
		cfg.Engine != ForwardEngine || cfg.Transport != MemTransport {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestAllEngineKindsMaterialize runs every engine kind end to end through
// the parallel path.
func TestAllEngineKindsMaterialize(t *testing.T) {
	ds := tinyLUBM()
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{ForwardEngine, ReteEngine, HybridEngine, HybridSharedEngine} {
		res, err := Materialize(ds, Config{Workers: 2, Engine: kind, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s: closure mismatch", kind)
		}
	}
}

// TestAllTransportsEndToEnd covers the full matrix transport × strategy.
func TestAllTransportsEndToEnd(t *testing.T) {
	ds := tinyLUBM()
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []TransportKind{MemTransport, FileTransport, TCPTransport} {
		for _, st := range []Strategy{DataPartitioning, RulePartitioning} {
			res, err := Materialize(ds, Config{Workers: 3, Strategy: st, Transport: tr, Seed: 42})
			if err != nil {
				t.Fatalf("%s/%s: %v", tr, st, err)
			}
			if !res.Graph.Equal(serial.Graph) {
				t.Fatalf("%s/%s: closure mismatch", tr, st)
			}
		}
	}
}

// TestTransportFaultsAreRetried: injected transient send and receive
// faults are absorbed by the retry wrapper Materialize installs around the
// fault shim, so the run still returns the serial closure.
func TestTransportFaultsAreRetried(t *testing.T) {
	ds := tinyLUBM()
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []TransportKind{MemTransport, TCPTransport} {
		for _, fc := range []faultinject.Config{{RecvNth: 2}, {SendNth: 3}} {
			res, err := Materialize(ds, Config{Workers: 3, Transport: tr, Seed: 42,
				TransportFault: faultinject.New(fc)})
			if err != nil {
				t.Fatalf("%s %+v: %v", tr, fc, err)
			}
			if !res.Graph.Equal(serial.Graph) {
				t.Fatalf("%s %+v: closure mismatch", tr, fc)
			}
		}
	}
}

// TestWorkersClampAndDegenerate: Workers=0 behaves as serial; Workers larger
// than the node count still works.
func TestWorkersClampAndDegenerate(t *testing.T) {
	ds := tinyLUBM()
	serial, err := Materialize(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 64} {
		res, err := Materialize(ds, Config{Workers: k, Policy: HashPolicy, Seed: 42})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("k=%d: closure mismatch", k)
		}
	}
}

// TestResultFieldsPopulated sanity-checks the reporting surface.
func TestResultFieldsPopulated(t *testing.T) {
	ds := tinyLUBM()
	res, err := Materialize(ds, Config{Workers: 3, Simulate: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferred <= 0 {
		t.Error("no inferences")
	}
	if res.Metrics == nil || len(res.Metrics.NodesPerPart) != 3 {
		t.Error("metrics missing")
	}
	if res.PartitionTime <= 0 {
		t.Error("partition time missing")
	}
	if len(res.PerWorker) != 3 {
		t.Error("per-worker timings missing")
	}
	if res.OR < 0 {
		t.Error("negative OR")
	}
	if res.Graph == nil || res.Graph.Len() <= ds.Graph.Len() {
		t.Error("result graph not grown")
	}
}

// TestStructuralWeightsBalanceDerivation: with no closure computed before
// partitioning, the graph policy's structural vertex weight (2 + degree)
// alone spreads the reasoning: per-worker Derived stays within 10 % between
// the busiest and the idlest worker, and the parallel closure is the serial
// one. The exception is LUBM at k=4, where two universities' worth of
// departments do not cut into four even pieces: the spread there is 1.30–1.37
// over seeds 1–3 (1.20–1.24 with the closure cost model this tree used to
// run before partitioning), so that cell only pins today's figure.
func TestStructuralWeightsBalanceDerivation(t *testing.T) {
	sets := []*datagen.Dataset{
		datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
	}
	for _, ds := range sets {
		serial, err := Materialize(ds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			bound := 1.10
			if ds.Name == "lubm" && k == 4 {
				bound = 1.40
			}
			res, err := Materialize(ds, Config{Workers: k, Simulate: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Graph.Equal(serial.Graph) {
				t.Errorf("%s k=%d: parallel closure has %d triples, serial %d", ds.Name, k, res.Graph.Len(), serial.Graph.Len())
			}
			lo, hi := res.PerWorker[0].Derived, res.PerWorker[0].Derived
			for _, w := range res.PerWorker {
				if w.Derived < lo {
					lo = w.Derived
				}
				if w.Derived > hi {
					hi = w.Derived
				}
			}
			if ratio := float64(hi) / float64(lo); ratio > bound {
				t.Errorf("%s k=%d: per-worker Derived spans %d..%d, ratio %.3f > %.2f", ds.Name, k, lo, hi, ratio, bound)
			}
		}
	}
}

// TestOwnerRouter: the precomputed routing table gives, for every pair of
// owned and unowned endpoints and every sender, the owners of subject and
// object other than the sender, once each — and allocates nothing.
func TestOwnerRouter(t *testing.T) {
	const k = 3
	owner := map[rdf.ID]int{1: 0, 2: 1, 3: 2, 5: 1}
	r := NewOwnerRouter(ownerTable(owner), k)
	for s := rdf.ID(0); s < 8; s++ {
		for o := rdf.ID(0); o < 8; o++ {
			for from := 0; from < k; from++ {
				var want []int
				if p, ok := owner[s]; ok && p != from {
					want = append(want, p)
				}
				if q, ok := owner[o]; ok && q != from && (len(want) == 0 || want[0] != q) {
					want = append(want, q)
				}
				got := r.Destinations(rdf.Triple{S: s, P: 9, O: o}, from)
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("s=%d o=%d from=%d: got %v (cap %d), want %v", s, o, from, got, cap(got), want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("s=%d o=%d from=%d: got %v, want %v", s, o, from, got, want)
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Destinations(rdf.Triple{S: 1, P: 9, O: 2}, 2)
		r.Destinations(rdf.Triple{S: 1, P: 9, O: 7}, 2)
	}); n != 0 {
		t.Errorf("Destinations allocates %.0f times per call pair", n)
	}

	// The hybrid grid of k slices × 2 rule groups: a tuple goes to every
	// (owner slice, consuming group) worker but the sender, once each.
	dict := rdf.NewDict()
	rs := rules.MustParse(customRuleText, dict)
	rres, err := rulepart.Partition(rs, 2, gpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := reason.Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	groups := rulepart.NewRouter(prog, rres)
	grid := newOwnerRouter(ownerTable(owner), k, 2, groups)
	preds := []rdf.ID{dict.InternIRI("http://t/p"), dict.InternIRI("http://t/q"), dict.InternIRI("http://t/r"), 99}
	for s := rdf.ID(0); s < 8; s++ {
		for o := rdf.ID(0); o < 8; o++ {
			for _, p := range preds {
				tr := rdf.Triple{S: s, P: p, O: o}
				gs := groups.Destinations(tr, -1)
				slices.Sort(gs)
				for from := 0; from < 2*k; from++ {
					var parts, want []int
					if d, ok := owner[s]; ok {
						parts = append(parts, d)
					}
					if d, ok := owner[o]; ok && (len(parts) == 0 || parts[0] != d) {
						parts = append(parts, d)
					}
					for _, d := range parts {
						for _, g := range gs {
							if w := d*2 + g; w != from {
								want = append(want, w)
							}
						}
					}
					if got := grid.Destinations(tr, from); !slices.Equal(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("grid s=%d p=%d o=%d from=%d: got %v, want %v", s, p, o, from, got, want)
					}
				}
			}
		}
	}
}

// TestHybridGridRoutesWithoutAllocating pins the hybrid grid's routing at
// zero allocations per tuple: the rule groups answer as a bit mask, and
// every answer is a window of the router's own array.
func TestHybridGridRoutesWithoutAllocating(t *testing.T) {
	ds := tinyLUBM()
	p, err := NewPlan(ds, Config{Workers: 4, Strategy: HybridPartitioning, Policy: HashPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if grid := p.Router.(*ownerRouter); grid.groups == nil {
		t.Fatal("a 4-worker hybrid plan has no rule groups")
	}
	all := ds.Graph.TriplesSince(0)
	sample := make([]rdf.Triple, 256)
	for i := range sample {
		sample[i] = all[i*len(all)/len(sample)]
	}
	if n := testing.AllocsPerRun(20, func() {
		for i, tr := range sample {
			p.Router.Destinations(tr, i%4)
		}
	}); n != 0 {
		t.Errorf("routing %d tuples through the hybrid grid allocates %.0f times", len(sample), n)
	}
}
