package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is what the suite writes and compare reads.
type resultFile struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Runs      int              `json:"runs"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Workloads []workloadResult `json:"workloads"`
}

type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digest    string                 `json:"digest,omitempty"`
	EndToEnd  map[string]*sampled    `json:"end_to_end"`
	Detail    map[string]*sampled    `json:"detail"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// sampled is one metric over the suite's runs of one workload.
type sampled struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (s *sampled) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// childDetail is the payload of a child's detail line.
type childDetail struct {
	Details  []detailMetric `json:"details"`
	Digest   string         `json:"digest"`
	Failures []string       `json:"failures"`
}

// runChild re-executes this binary for one run of one workload, so every run
// starts from a fresh heap and its peak RSS is its own. It passes the child's
// readable output through and returns the two machine-readable lines.
func runChild(w workload, seed int64, seconds, scale float64, traced bool, stdout io.Writer) (resultLine, childDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, childDetail{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace,
		"--scale", strconv.FormatFloat(scale, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var line resultLine
	var detail childDetail
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, detailPrefix):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(l, detailPrefix)), &detail); err != nil {
				return line, detail, fmt.Errorf("%s: bad detail line: %w", w.name, err)
			}
		case i == len(lines)-1:
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				return line, detail, fmt.Errorf("%s: no result object on the last line (%v): %w", w.name, runErr, err)
			}
		default:
			fmt.Fprintln(stdout, l)
		}
	}
	if runErr != nil && line.Failed == 0 {
		return line, detail, fmt.Errorf("%s: %w", w.name, runErr)
	}
	return line, detail, nil
}

// suiteMain runs every workload: runs untraced runs on consecutive seeds,
// then one traced run on the first seed.
func suiteMain(seed int64, runs int, seconds, scale float64, outPath string, stdout, stderr io.Writer) int {
	if runs < 1 {
		runs = 1
	}
	file := resultFile{Schema: 1, Seed: seed, Runs: runs, Seconds: seconds, Scale: scale,
		Host: hostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: benchProcs(), Go: runtime.Version(),
			Platform: runtime.GOOS + "/" + runtime.GOARCH}}
	failed := false
	digests := map[string]string{}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Why: w.why,
			EndToEnd: map[string]*sampled{}, Detail: map[string]*sampled{}, PerLayer: map[string]metricValue{}}
		for _, s := range endToEnd {
			wr.EndToEnd[s.name] = &sampled{Unit: s.unit, Better: s.better, Bound: s.bound}
		}
		note := func(line resultLine, d childDetail) {
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.Failures = append(wr.Failures, d.Failures...)
		}
		for i := 0; i < runs; i++ {
			line, d, err := runChild(w, seed+int64(i), seconds, scale, false, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "owlbench: %v\n", err)
				return 1
			}
			note(line, d)
			for name, m := range line.Metrics {
				wr.EndToEnd[name].add(m.Value)
			}
			for _, dm := range d.Details {
				if wr.Detail[dm.Name] == nil {
					wr.Detail[dm.Name] = &sampled{Unit: dm.Unit}
				}
				wr.Detail[dm.Name].add(dm.Value)
			}
			if i == 0 {
				wr.Digest = d.Digest
			}
		}
		line, d, err := runChild(w, seed, seconds, scale, true, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "owlbench: %v\n", err)
			return 1
		}
		note(line, d)
		wr.PerLayer = line.Metrics
		if wr.Failed > 0 {
			failed = true
		}
		// Workloads on the same dataset and seed must have closed to the
		// same graph.
		if wr.Digest != "" {
			if prev, ok := digests[w.dataset]; ok && prev != wr.Digest {
				fmt.Fprintf(stderr, "owlbench: %s closed to %s, an earlier %s workload to %s\n", w.name, wr.Digest, w.dataset, prev)
				failed = true
			}
			digests[w.dataset] = wr.Digest
		}
		file.Workloads = append(file.Workloads, wr)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "owlbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "owlbench: %v\n", err)
		return 1
	}
	printSummary(stdout, file)
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	if failed {
		return 1
	}
	return 0
}

// printSummary prints every end-to-end metric of every workload by name with
// its unit, the median over the suite's runs and their spread.
func printSummary(w io.Writer, f resultFile) {
	fmt.Fprintf(w, "\n%-22s %-12s %14s %-5s %8s %4s  %s\n", "workload", "metric", "median", "unit", "spread", "n", "failed_frac")
	for _, wr := range f.Workloads {
		frac := 0.0
		if wr.Attempted > 0 {
			frac = float64(wr.Failed) / float64(wr.Attempted)
		}
		for _, s := range endToEnd {
			m := wr.EndToEnd[s.name]
			fmt.Fprintf(w, "%-22s %-12s %14.6g %-5s %7.1f%% %4d  %g\n", wr.Name, s.name, m.Median, m.Unit,
				100*spread(m.Values), len(m.Values), frac)
		}
	}
}
