// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each ExpN function returns typed rows plus a printer
// producing the same series the paper reports; cmd/experiments and the
// top-level benchmarks are thin wrappers around this package.
//
// Scales are reduced relative to the paper (see DESIGN.md): the quantities
// compared are speedup curves, overhead fractions and replication metrics,
// all of which are scale-free shapes.
package experiments

import (
	"fmt"
	"io"
	"time"

	"powl/internal/cluster"
	"powl/internal/core"
	"powl/internal/datagen"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks datasets and repeats for smoke-testing the harness.
	Quick Scale = iota
	// Full is the default reported configuration.
	Full
)

// Repeats returns the number of repetitions per measured point; medians are
// reported to suppress scheduler noise.
func (s Scale) Repeats() int {
	if s == Quick {
		return 1
	}
	return 3
}

// Datasets returns the benchmark instances of §VI ("LUBM-10 (1M triples) and
// UOBM-4 data-sets and our own data-set called MDC"), at this scale.
func (s Scale) Datasets() []*datagen.Dataset {
	if s == Quick {
		return []*datagen.Dataset{
			datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7}),
			datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
			datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7}),
		}
	}
	return []*datagen.Dataset{
		datagen.LUBM(datagen.LUBMConfig{Universities: 10, Seed: 7, DeptsPerUniv: 30}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 4, Seed: 7}),
		datagen.MDC(datagen.MDCConfig{Fields: 16, Seed: 7, WellsPerField: 8}),
	}
}

// LUBMAt generates the LUBM instance for a given university count at this
// scale (used by the Fig 3/4 scaling sweeps). The department count matches
// the Full Datasets() LUBM instance so the Figure 4 model and the Figure 3
// prediction share units.
func (s Scale) LUBMAt(universities int) *datagen.Dataset {
	depts := 0
	if s == Full {
		depts = 30
	}
	return datagen.LUBM(datagen.LUBMConfig{Universities: universities, Seed: 7, DeptsPerUniv: depts})
}

// Workers returns the processor counts of the speedup figures.
func (s Scale) Workers() []int {
	if s == Quick {
		return []int{2, 4}
	}
	return []int{2, 4, 8, 16}
}

// speedupConfig is the run the speedup figures time: data partitioning
// under pol, the hybrid engine, shared memory, Simulated mode. Workers is
// left at its default, 1: the serial baseline each figure divides by, on the
// same code path as its parallel runs.
func speedupConfig(pol core.PolicyKind) core.Config {
	return core.Config{Strategy: core.DataPartitioning, Policy: pol, Engine: core.HybridEngine,
		Transport: core.MemTransport, Simulate: true, Seed: 42}
}

// medianRun runs the materialization `repeats` times and returns the run
// with the median elapsed time.
func medianRun(ds *datagen.Dataset, cfg core.Config, repeats int) (*core.Result, error) {
	type run struct {
		res *core.Result
	}
	runs := make([]run, 0, repeats)
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		res, err := core.Materialize(ds, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run{res})
		times = append(times, res.Elapsed)
	}
	med := median(times)
	for _, r := range runs {
		if r.res.Elapsed == med {
			return r.res, nil
		}
	}
	return runs[len(runs)/2].res, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration{}, ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// maxWorker returns the maximum over workers of the selected duration.
func maxWorker(res *core.Result, sel func(tm cluster.Timings) time.Duration) time.Duration {
	var max time.Duration
	for _, tm := range res.PerWorker {
		if d := sel(tm); d > max {
			max = d
		}
	}
	return max
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
