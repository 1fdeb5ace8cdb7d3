package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func resultWith(values map[string][]float64) resultFile {
	wr := workloadResult{Name: "batch.lubm.serial", EndToEnd: map[string]*sampled{}}
	for _, s := range endToEnd {
		m := &sampled{Unit: s.unit, Better: s.better, Bound: s.bound}
		for _, v := range values[s.name] {
			m.add(v)
		}
		wr.EndToEnd[s.name] = m
	}
	return resultFile{Schema: 1, Runs: 5, Workloads: []workloadResult{wr}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := map[string][]float64{
		"op_p50_ms":   {100, 101, 99, 100, 100},
		"peak_rss_mb": {400, 401, 399, 400, 400},
		"setup_s":     {2, 2, 2, 2, 2},
	}
	changed := map[string][]float64{
		"op_p50_ms":   {130, 131, 129, 130, 130}, // 30% slower: regressed
		"peak_rss_mb": {300, 500, 400, 350, 450}, // spread far wider than the bound
		"setup_s":     {2.2, 2.2, 2.2, 2.2, 2.2}, // 10% worse, bound 25%: ok
	}
	want := map[string]string{
		"op_p50_ms": verdictRegressed, "peak_rss_mb": verdictUnresolved, "setup_s": verdictOK,
	}
	rows := compareFiles(resultWith(steady), resultWith(changed))
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want %d", len(rows), len(endToEnd))
	}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %s, want %s (ratio %.3f, spread %.3f, bound %.2f)", r.metric, r.verdict, want[r.metric], r.ratio, r.spread, r.bound)
		}
	}

	// The command exits 1 on a regression and 0 when a file is compared
	// with itself.
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		data, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP, newP := write("old.json", resultWith(steady)), write("new.json", resultWith(changed))
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", oldP, newP}, &out, &errOut); code != 1 {
		t.Errorf("compare with a regression: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1.300x of 100") {
		t.Errorf("ratio is not given with its base:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", oldP, oldP}, &out, &errOut); code != 0 {
		t.Errorf("compare of a file with itself: exit %d, want 0\n%s", code, out.String())
	}
}

func TestCompareHigherIsBetter(t *testing.T) {
	mk := func(vs ...float64) *sampled {
		m := &sampled{Unit: "1/s", Better: "higher", Bound: 0.1}
		for _, v := range vs {
			m.add(v)
		}
		return m
	}
	if _, _, v := compareMetric(mk(1000, 1000, 1000), mk(800, 800, 800)); v != verdictRegressed {
		t.Errorf("20%% less throughput: %s, want regressed", v)
	}
	if _, _, v := compareMetric(mk(1000, 1000, 1000), mk(1300, 1300, 1300)); v != verdictOK {
		t.Errorf("30%% more throughput: %s, want ok", v)
	}
}
