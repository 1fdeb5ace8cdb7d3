package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},  // overlaps b: two workers at once
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},  //
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past its parent: clipped
		{Name: "b1", Start: ms(25), End: ms(45), Parent: 2},
		{Name: "other root", Start: ms(200), End: ms(260), Parent: -1},
	}
	want := []time.Duration{
		ms(50), // 100 - ([10,50] + [90,100])
		ms(20), ms(10), ms(30), ms(20), ms(60),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.begin("closure", -1, 0)
	tr.nextRun()
	kid := tr.begin("reason.materialize", root, 1)
	if d := tr.end(kid).dur(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "reason.materialize" || e.Ph != "X" || e.Pid != 1 || e.Tid != 1 || e.Args["parent"] != float64(root) {
		t.Errorf("child event = %+v", e)
	}
}
