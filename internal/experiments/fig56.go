package experiments

import (
	"fmt"
	"io"
	"time"

	"powl/internal/core"
)

// Fig5Row is one point of Figure 5: speedup per data-partitioning policy on
// LUBM.
type Fig5Row struct {
	Policy  core.PolicyKind
	K       int
	Speedup float64
	IR      float64
}

// Fig5 reproduces Figure 5: "Comparison of performance of the two [sic —
// three] data-partitioning algorithms for LUBM-10". Expected shape: graph ≈
// domain ≫ hash. (The paper could not run hash at 8 and 16 nodes — the runs
// exceeded the machines' memory; we can, and report them for completeness.)
func Fig5(scale Scale) ([]Fig5Row, error) {
	ds := scale.Datasets()[0]
	// At one worker every policy makes the same plan: one baseline.
	serial, err := medianRun(ds, speedupConfig(core.GraphPolicy), scale.Repeats())
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, pol := range []core.PolicyKind{core.GraphPolicy, core.DomainPolicy, core.HashPolicy} {
		for _, k := range scale.Workers() {
			cfg := speedupConfig(pol)
			cfg.Workers = k
			res, err := medianRun(ds, cfg, scale.Repeats())
			if err != nil {
				return nil, err
			}
			if !res.Graph.Equal(serial.Graph) {
				return nil, fmt.Errorf("fig5 %s k=%d: closure mismatch", pol, k)
			}
			rows = append(rows, Fig5Row{
				Policy:  pol,
				K:       k,
				Speedup: serial.Elapsed.Seconds() / res.Elapsed.Seconds(),
				IR:      res.Metrics.IR,
			})
		}
	}
	return rows, nil
}

// PrintFig5 renders the Figure 5 series.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fprintf(w, "Figure 5: speedup per data-partitioning policy, LUBM\n")
	fprintf(w, "%-8s %4s %8s %6s\n", "policy", "k", "speedup", "IR")
	for _, r := range rows {
		fprintf(w, "%-8s %4d %8.2f %6.2f\n", r.Policy, r.K, r.Speedup, r.IR)
	}
}

// Fig6Row is one point of Figure 6: rule-partitioning speedups.
type Fig6Row struct {
	Dataset string
	K       int
	Serial  time.Duration
	Elapsed time.Duration
	Speedup float64
	RuleCut int64
	Rounds  int
}

// fig6Workers: "since all of these rule-sets are fairly small, we have only
// conducted experiments on a small number of processors" (§VI-D).
func fig6Workers(scale Scale) []int {
	if scale == Quick {
		return []int{2}
	}
	return []int{2, 3, 4}
}

// Fig6 reproduces Figure 6: "Speedup for the different benchmarks for
// rule-base partitioning", using the shared-memory transport the paper
// switched to for these runs. Expected shape: sub-linear but monotonic.
func Fig6(scale Scale) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, ds := range scale.Datasets() {
		cfg := core.Config{
			Strategy:  core.RulePartitioning,
			Engine:    core.HybridEngine,
			Transport: core.MemTransport,
			Simulate:  true,
			Seed:      42,
		}
		serial, err := medianRun(ds, cfg, scale.Repeats())
		if err != nil {
			return nil, err
		}
		for _, k := range fig6Workers(scale) {
			cfg.Workers = k
			res, err := medianRun(ds, cfg, scale.Repeats())
			if err != nil {
				return nil, err
			}
			if !res.Graph.Equal(serial.Graph) {
				return nil, fmt.Errorf("fig6 %s k=%d: closure mismatch (%d vs %d)",
					ds.Name, k, res.Graph.Len(), serial.Graph.Len())
			}
			rows = append(rows, Fig6Row{
				Dataset: ds.Name,
				K:       k,
				Serial:  serial.Elapsed,
				Elapsed: res.Elapsed,
				Speedup: serial.Elapsed.Seconds() / res.Elapsed.Seconds(),
				RuleCut: res.RuleCut,
				Rounds:  res.Rounds,
			})
		}
	}
	return rows, nil
}

// PrintFig6 renders the Figure 6 series.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fprintf(w, "Figure 6: speedup per benchmark, rule-base partitioning, shared memory\n")
	fprintf(w, "%-8s %4s %12s %12s %8s %8s %7s\n", "dataset", "k", "serial", "parallel", "speedup", "rulecut", "rounds")
	for _, r := range rows {
		fprintf(w, "%-8s %4d %12v %12v %8.2f %8d %7d\n",
			r.Dataset, r.K, r.Serial.Round(time.Millisecond),
			r.Elapsed.Round(time.Millisecond), r.Speedup, r.RuleCut, r.Rounds)
	}
}
