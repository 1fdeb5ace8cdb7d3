package experiments

import (
	"fmt"
	"io"
	"time"

	"powl/internal/cluster"
	"powl/internal/core"
	"powl/internal/stats"
)

// Fig4Row is one point of Figure 4: serial reasoning time versus LUBM scale,
// with the cubic model evaluated at the same point.
type Fig4Row struct {
	Universities int
	Triples      int
	Measured     time.Duration
	Model        time.Duration
}

// Fig4Result carries the regression of Figure 4.
type Fig4Result struct {
	Rows []Fig4Row
	// Coeffs are the cubic coefficients over the triple count (seconds as a
	// function of millions of triples would match the paper; here the x
	// axis is thousands of triples).
	Coeffs   []float64
	RSquared float64
}

// fig4Scales are the LUBM sizes used for the regression, mirroring the
// paper's "LUBM-1, LUBM-5, LUBM-10 etc".
func fig4Scales(scale Scale) []int {
	if scale == Quick {
		return []int{1, 2, 3, 4, 5}
	}
	return []int{1, 2, 4, 6, 8, 10}
}

// Fig4 reproduces Figure 4: regress a cubic performance model from observed
// serial reasoning times across LUBM scales. The paper justifies the cubic
// form by the worst-case complexity of the rule set.
func Fig4(scale Scale) (*Fig4Result, error) {
	var xs, ys []float64
	res := &Fig4Result{}
	for _, u := range fig4Scales(scale) {
		ds := scale.LUBMAt(u)
		serial, err := medianRun(ds, speedupConfig(core.GraphPolicy), scale.Repeats())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig4Row{
			Universities: u,
			Triples:      ds.Graph.Len(),
			Measured:     serial.Elapsed,
		})
		xs = append(xs, float64(ds.Graph.Len())/1000)
		ys = append(ys, serial.Elapsed.Seconds())
	}
	coeffs, err := stats.PolyFit(xs, ys, 3)
	if err != nil {
		return nil, err
	}
	res.Coeffs = coeffs
	res.RSquared = stats.RSquared(coeffs, xs, ys)
	for i := range res.Rows {
		res.Rows[i].Model = time.Duration(stats.PolyEval(coeffs, xs[i]) * float64(time.Second))
	}
	return res, nil
}

// PrintFig4 renders the Figure 4 series.
func PrintFig4(w io.Writer, r *Fig4Result) {
	fprintf(w, "Figure 4: cubic performance model from serial LUBM reasoning times\n")
	fprintf(w, "%-8s %8s %12s %12s\n", "lubm-N", "triples", "measured", "model")
	for _, row := range r.Rows {
		fprintf(w, "%-8d %8d %12v %12v\n", row.Universities, row.Triples,
			row.Measured.Round(time.Millisecond), row.Model.Round(time.Millisecond))
	}
	fprintf(w, "cubic fit (x in kilo-triples): t = %.3g + %.3g·x + %.3g·x² + %.3g·x³  (R²=%.4f)\n",
		r.Coeffs[0], r.Coeffs[1], r.Coeffs[2], r.Coeffs[3], r.RSquared)
}

// Fig3Row is one point of Figure 3: measured speedup against the
// theoretical maximum predicted by the Figure 4 model, for LUBM.
type Fig3Row struct {
	K int
	// Measured is the overall speedup (serial / parallel elapsed).
	Measured float64
	// SlowestPartition is serial / (max worker reasoning time) — the
	// "reasoning for the slowest partition" series of the figure.
	SlowestPartition float64
	// TheoreticalMax is T(n)/T(n/k) from the cubic model: equal-size
	// partitions, no replication, no overhead.
	TheoreticalMax float64
}

// Fig3 reproduces Figure 3: measured versus theoretical-maximum speedup on
// LUBM. Expected shape: measured tracks the model's bound from below.
func Fig3(scale Scale) ([]Fig3Row, error) {
	fig4, err := Fig4(scale)
	if err != nil {
		return nil, err
	}
	ds := scale.Datasets()[0]
	cfg := speedupConfig(core.GraphPolicy)
	serial, err := medianRun(ds, cfg, scale.Repeats())
	if err != nil {
		return nil, err
	}
	x := float64(ds.Graph.Len()) / 1000
	tN := stats.PolyEval(fig4.Coeffs, x)
	var rows []Fig3Row
	for _, k := range scale.Workers() {
		cfg.Workers = k
		res, err := medianRun(ds, cfg, scale.Repeats())
		if err != nil {
			return nil, err
		}
		if !res.Graph.Equal(serial.Graph) {
			return nil, fmt.Errorf("fig3 k=%d: closure mismatch", k)
		}
		maxReason := maxWorker(res, func(tm cluster.Timings) time.Duration { return tm.Reason })
		tNk := stats.PolyEval(fig4.Coeffs, x/float64(k))
		row := Fig3Row{
			K:                k,
			Measured:         serial.Elapsed.Seconds() / res.Elapsed.Seconds(),
			SlowestPartition: serial.Elapsed.Seconds() / maxReason.Seconds(),
		}
		if tNk > 0 {
			row.TheoreticalMax = tN / tNk
		} else {
			// The fitted cubic can dip non-positive when extrapolated far
			// below the smallest measured size (possible at Quick scale);
			// the linear bound is the defensible floor there.
			row.TheoreticalMax = float64(k)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig3 renders the Figure 3 series.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fprintf(w, "Figure 3: measured vs theoretical-max speedup, LUBM\n")
	fprintf(w, "%4s %10s %18s %16s\n", "k", "measured", "slowest-partition", "theoretical-max")
	for _, r := range rows {
		fprintf(w, "%4d %10.2f %18.2f %16.2f\n", r.K, r.Measured, r.SlowestPartition, r.TheoreticalMax)
	}
}
