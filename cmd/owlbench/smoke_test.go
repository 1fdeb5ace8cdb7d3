package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runOnce drives the command line the way the driver does and returns the
// result object from the last line of output.
func runOnce(t *testing.T, name, trace string) resultLine {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "2", "--seconds", "0.6", "--trace", trace, "--scale", "0.05"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", name, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s trace %s: %+v\n%s", name, trace, line, out.String())
	}
	return line
}

func checkMetrics(t *testing.T, name string, line resultLine, specs []metricSpec) {
	t.Helper()
	if len(line.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(line.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := line.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %s", name, s.name, m, ok, s.unit)
		}
	}
}

// The -seed 2 smoke run at 1/20 size: every workload, untraced and traced,
// through the same entry point the driver uses.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads twice")
	}
	layers := map[string]map[string]metricValue{}
	for _, w := range workloads {
		line := runOnce(t, w.name, "0")
		checkMetrics(t, w.name, line, endToEnd)
		for _, s := range endToEnd {
			if line.Metrics[s.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, s.name, line.Metrics[s.name].Value)
			}
		}
		traced := runOnce(t, w.name, "1")
		checkMetrics(t, w.name, traced, perLayer)
		layers[w.name] = traced.Metrics
	}
	value := func(w, m string) float64 { return layers[w][m].Value }
	for _, c := range []struct {
		workload, metric string
		zero             bool
	}{
		{"batch.lubm.serial", "transport.triples_sent", true},
		{"batch.lubm.serial", "partition.partition_s", true},
		{"batch.lubm.serial", "reason.first_s", false},
		{"batch.lubm.t2", "reason.threads_speedup", false},
		{"batch.uobm.k2-graph", "partition.partition_s", false},
		{"batch.uobm.k2-hash", "transport.triples_sent", false},
		{"batch.uobm.k2-hash", "cluster.rounds", false},
		{"serve.lubm.read", "query.solve_scan_us", false},
		{"serve.lubm.read", "rdf.compact_count", true},
		{"serve.lubm.read", "reason.retract_us", true},
		{"serve.lubm.churn", "reason.retract_us", false},
		{"serve.lubm.churn", "reason.insert_close_us", false},
	} {
		if got := value(c.workload, c.metric); (got == 0) != c.zero {
			t.Errorf("%s: %s = %v, want zero: %v", c.workload, c.metric, got, c.zero)
		}
	}
	// The stage numbers of a traced closure are a partition of its wall time.
	for _, w := range workloads[:4] {
		sum, untraced := value(w.name, "trace.layers_sum_s"), value(w.name, "trace.untraced_s")
		if sum <= 0 || untraced <= 0 {
			t.Errorf("%s: layers sum %v, untraced %v", w.name, sum, untraced)
		}
	}
}

func TestUnknownWorkloadAndBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed a result on a usage error: %s", out.String())
	}
}
