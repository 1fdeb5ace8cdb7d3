package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	workload, metric, unit string
	old, new               float64
	ratio                  float64 // new / old
	bound                  float64
	spread                 float64 // the wider of the two sides' IQR/median
	verdict                string
}

// compareMetric judges one metric of one workload. A metric whose run-to-run
// spread on either side is wider than its bound cannot be told apart from
// noise, so it is unresolved whatever the medians say; otherwise it has
// regressed when the new median is worse than the old by more than the
// bound.
func compareMetric(oldM, newM *sampled) (ratio, spreadMax float64, verdict string) {
	spreadMax = spread(oldM.Values)
	if s := spread(newM.Values); s > spreadMax {
		spreadMax = s
	}
	if oldM.Median != 0 {
		ratio = newM.Median / oldM.Median
	}
	worse := ratio - 1
	if newM.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spreadMax > newM.Bound:
		verdict = verdictUnresolved
	case worse > newM.Bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return ratio, spreadMax, verdict
}

// compareFiles builds the rows for every end-to-end metric of every workload
// present in both files, in the new file's order.
func compareFiles(oldF, newF resultFile) []compareRow {
	oldBy := map[string]workloadResult{}
	for _, w := range oldF.Workloads {
		oldBy[w.Name] = w
	}
	var rows []compareRow
	for _, nw := range newF.Workloads {
		ow, ok := oldBy[nw.Name]
		if !ok {
			continue
		}
		for _, s := range endToEnd {
			om, nm := ow.EndToEnd[s.name], nw.EndToEnd[s.name]
			if om == nil || nm == nil {
				continue
			}
			ratio, sp, verdict := compareMetric(om, nm)
			rows = append(rows, compareRow{nw.Name, s.name, nm.Unit, om.Median, nm.Median, ratio, nm.Bound, sp, verdict})
		}
		// A run that failed operations misses every limit.
		if nw.Failed > ow.Failed {
			rows = append(rows, compareRow{workload: nw.Name, metric: "failed", unit: "count",
				old: float64(ow.Failed), new: float64(nw.Failed), verdict: verdictRegressed})
		}
	}
	return rows
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain implements `owlbench compare old.json new.json`.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: owlbench compare OLD.json NEW.json")
		return 2
	}
	oldF, err := readResult(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "owlbench: %v\n", err)
		return 2
	}
	newF, err := readResult(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "owlbench: %v\n", err)
		return 2
	}
	rows := compareFiles(oldF, newF)
	fmt.Fprintf(stdout, "%-22s %-12s %13s %13s %-5s %16s %6s %7s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "new/old", "bound", "spread", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-22s %-12s %13.6g %13.6g %-5s %6.3fx of %-7.4g %5.0f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.old, r.new, r.unit, r.ratio, r.old, 100*r.bound, 100*r.spread, r.verdict)
		if r.verdict == verdictRegressed {
			regressed = true
		}
	}
	fmt.Fprintf(stdout, "old: %d runs per workload on %d cores, %s; new: %d runs on %d cores, %s\n",
		oldF.Runs, oldF.Host.Cores, oldF.Host.Go, newF.Runs, newF.Host.Cores, newF.Host.Go)
	if regressed {
		return 1
	}
	return 0
}
