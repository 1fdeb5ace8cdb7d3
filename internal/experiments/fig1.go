package experiments

import (
	"fmt"
	"io"
	"time"

	"powl/internal/core"
)

// Fig1Row is one point of Figure 1: speedup of the data-partitioning
// approach (graph-partitioning policy) over the serial reasoner, which is
// the same run at one worker.
type Fig1Row struct {
	Dataset string
	Triples int
	K       int
	Serial  time.Duration
	Elapsed time.Duration
	Speedup float64
	Rounds  int
	IR      float64
}

// Fig1 reproduces Figure 1: "Speedup for the LUBM-10, UOBM benchmarks on
// different number of processors" (plus MDC, §VI-A) under data partitioning
// with the graph policy and the hybrid engine. Expected shape: super-linear
// for LUBM and MDC, sub-linear for UOBM.
func Fig1(scale Scale) ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, ds := range scale.Datasets() {
		cfg := speedupConfig(core.GraphPolicy)
		serial, err := medianRun(ds, cfg, scale.Repeats())
		if err != nil {
			return nil, err
		}
		for _, k := range scale.Workers() {
			cfg.Workers = k
			res, err := medianRun(ds, cfg, scale.Repeats())
			if err != nil {
				return nil, err
			}
			if !res.Graph.Equal(serial.Graph) {
				return nil, fmt.Errorf("fig1 %s k=%d: parallel closure %d != serial %d",
					ds.Name, k, res.Graph.Len(), serial.Graph.Len())
			}
			rows = append(rows, Fig1Row{
				Dataset: ds.Name,
				Triples: ds.Graph.Len(),
				K:       k,
				Serial:  serial.Elapsed,
				Elapsed: res.Elapsed,
				Speedup: serial.Elapsed.Seconds() / res.Elapsed.Seconds(),
				Rounds:  res.Rounds,
				IR:      res.Metrics.IR,
			})
		}
	}
	return rows, nil
}

// PrintFig1 renders the Figure 1 series.
func PrintFig1(w io.Writer, rows []Fig1Row) {
	fprintf(w, "Figure 1: speedup, data partitioning (graph policy), hybrid engine\n")
	fprintf(w, "%-8s %8s %4s %12s %12s %8s %7s %6s\n",
		"dataset", "triples", "k", "serial", "parallel", "speedup", "rounds", "IR")
	for _, r := range rows {
		fprintf(w, "%-8s %8d %4d %12v %12v %8.2f %7d %6.2f\n",
			r.Dataset, r.Triples, r.K, r.Serial.Round(time.Millisecond),
			r.Elapsed.Round(time.Millisecond), r.Speedup, r.Rounds, r.IR)
	}
}
