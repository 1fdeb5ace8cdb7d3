package experiments

import (
	"io"
	"time"

	"powl/internal/core"
)

// Table1Row is one row of Table I: the partitioning metrics of §III for one
// policy at one partition count on LUBM.
type Table1Row struct {
	K        int
	Policy   string
	Bal      float64
	OR       float64
	IR       float64
	PartTime time.Duration
}

// Table1 reproduces Table I: bal / OR / IR / partitioning time for the three
// data-partitioning policies on LUBM, k ∈ {2,4,8,16}, each from the plan
// core.Materialize would run; OR is the plan's PreExchangeOR.
func Table1(scale Scale) ([]Table1Row, error) {
	ds := scale.Datasets()[0]
	var rows []Table1Row
	for _, k := range scale.Workers() {
		for _, pol := range []core.PolicyKind{core.GraphPolicy, core.DomainPolicy, core.HashPolicy} {
			p, err := core.NewPlan(ds, core.Config{Workers: k, Policy: pol, Seed: 42})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{
				K:        k,
				Policy:   string(pol),
				Bal:      p.Metrics.Bal,
				OR:       p.PreExchangeOR(),
				IR:       p.Metrics.IR,
				PartTime: p.PartitionTime,
			})
		}
	}
	return rows, nil
}

// PrintTable1 renders Table I.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table I: partitioning metrics for the LUBM data-set\n")
	fprintf(w, "%4s %-8s %10s %8s %8s %12s\n", "k", "policy", "bal", "OR", "IR", "part-time")
	for _, r := range rows {
		fprintf(w, "%4d %-8s %10.1f %8.2f %8.2f %12v\n",
			r.K, r.Policy, r.Bal, r.OR, r.IR, r.PartTime.Round(time.Millisecond))
	}
}
