package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5) // must not panic
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Error("nil gauge must read 0")
	}

	r := NewRegistry()
	r.Counter("derived").Add(3)
	r.Counter("derived").Add(4)
	if got := r.Counter("derived").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	r.Gauge("rounds").Set(9)
	if got := r.Gauge("rounds").Value(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}

	var nilReg *Registry
	nilReg.Counter("x").Add(1) // nil registry hands out nil metrics
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z").Observe(time.Second)
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase.reason")
	h.Observe(time.Microsecond)
	h.Observe(2 * time.Microsecond)
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != time.Microsecond || s.Max != time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Sum != time.Millisecond+3*time.Microsecond {
		t.Errorf("sum = %v", s.Sum)
	}
	if s.Mean() <= 0 {
		t.Error("mean must be positive")
	}
	total := int64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total != 3 {
		t.Errorf("bucket total = %d, want 3", total)
	}
	var nilH *Histogram
	nilH.Observe(time.Second)
	if nilH.Snapshot().Count != 0 {
		t.Error("nil histogram must snapshot empty")
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	r.Histogram("h").Observe(time.Millisecond)
	names := r.Names()
	if len(names) != 3 || names[0] != "a" {
		t.Errorf("names = %v", names)
	}
	snap := r.Snapshot()
	if snap["a"].(int64) != 2 {
		t.Errorf("snapshot a = %v", snap["a"])
	}
	if _, ok := snap["h"]; !ok {
		t.Error("histogram missing from snapshot")
	}
	var nilReg *Registry
	if len(nilReg.Snapshot()) != 0 {
		t.Error("nil registry must snapshot empty")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	want := []Event{
		{Type: EvRunStart, Worker: MasterWorker, Name: "forward", N: 4},
		{Type: EvPhase, TS: 10, Dur: 100, Worker: 0, Round: 0, Phase: PhaseReason},
		{Type: EvPhase, TS: 110, Dur: 50, Worker: 0, Round: 0, Phase: PhaseSend, N: 12},
		{Type: EvRuleProfile, TS: 200, Worker: 1, Name: "sc-1-2", N: 7, N2: 9, Dur: 77},
		{Type: EvTransport, TS: 200, Worker: 0, Name: "0->1", N: 2, N2: 40, Bytes: 512},
		{Type: EvRunEnd, TS: 300, Dur: 300, Worker: MasterWorker, N: 3},
	}
	for _, e := range want {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseJournalRejectsMalformed(t *testing.T) {
	_, err := ParseJournal(strings.NewReader("{\"type\":\"phase\",\"worker\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestMemAndMultiSink(t *testing.T) {
	m1, m2 := &MemSink{}, &MemSink{}
	multi := MultiSink{m1, m2}
	multi.Emit(Event{Type: EvRunStart})
	if len(m1.Events()) != 1 || len(m2.Events()) != 1 {
		t.Error("MultiSink must fan out to all children")
	}
}

func TestTopRules(t *testing.T) {
	m := map[string]RuleStats{
		"slow":  {Firings: 1, Time: 3 * time.Second},
		"fast":  {Firings: 100, Time: time.Millisecond},
		"mid":   {Firings: 10, Time: time.Second},
		"empty": {},
	}
	top := TopRules(m, 2)
	if len(top) != 2 || top[0].Name != "slow" || top[1].Name != "mid" {
		t.Errorf("TopRules = %+v", top)
	}
	all := TopRules(m, 0)
	if len(all) != 4 {
		t.Errorf("TopRules(0) returned %d rules", len(all))
	}
}

func TestRuleCollectorAndContext(t *testing.T) {
	var nilC *RuleCollector
	nilC.Record("r", 1, 1, time.Second) // nil-safe
	if ctx := ContextWithRules(context.Background(), nilC); RulesFrom(ctx) != nil {
		t.Error("nil collector must leave ctx without rules")
	}

	c := &RuleCollector{}
	ctx := ContextWithRules(context.Background(), c)
	got := RulesFrom(ctx)
	if got != c {
		t.Fatal("RulesFrom must return the attached collector")
	}
	got.Record("sc", 2, 3, time.Millisecond)
	got.Record("sc", 1, 1, time.Millisecond)
	snap := c.Snapshot()
	if s := snap["sc"]; s.Firings != 3 || s.Matches != 4 || s.Time != 2*time.Millisecond {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestTransportRecorder(t *testing.T) {
	var nilT *TransportRecorder
	nilT.Batch(0, 1, 5, 100) // nil-safe
	nilT.Retried("send")
	nilT.Slept(time.Second)

	r := &TransportRecorder{}
	r.Batch(0, 1, 5, 100)
	r.Batch(0, 1, 3, 50)
	r.Batch(1, 0, 1, 10)
	pairs := r.Pairs()
	if p := pairs[[2]int{0, 1}]; p.Msgs != 2 || p.Triples != 8 || p.Bytes != 150 {
		t.Errorf("pair 0->1 = %+v", p)
	}
	if p := pairs[[2]int{1, 0}]; p.Msgs != 1 {
		t.Errorf("pair 1->0 = %+v", p)
	}
}

func TestRunNilSafe(t *testing.T) {
	var r *Run
	if r.Now() != 0 {
		t.Error("nil run Now must be 0")
	}
	r.Emit(Event{Type: EvRunStart}) // must not panic
	if r.Rules(0) != nil {
		t.Error("nil run must hand out nil collectors")
	}
	if r.Transport() != nil {
		t.Error("nil run must hand out a nil recorder")
	}
	r.FlushProfiles(0)
}

func TestRunFlushProfiles(t *testing.T) {
	sink := &MemSink{}
	run := NewRun(sink, NewRegistry())
	run.Rules(1).Record("sc-a", 5, 6, time.Millisecond)
	run.Rules(0).Record("sc-b", 1, 1, time.Microsecond)
	run.Pieces(0).Record(PieceSpan{Stratum: 1, Pieces: 2, Sweep: 3, Threads: 1, Delta: 40, Derived: 5, Activations: 60})
	run.Transport().Batch(0, 1, 10, 1024)
	run.Transport().Retried("send")
	run.Transport().Slept(3 * time.Millisecond)
	run.FlushProfiles(42)

	events := sink.Events()
	var profiles, pieces, transports, retries []Event
	for _, e := range events {
		switch e.Type {
		case EvRuleProfile:
			profiles = append(profiles, e)
		case EvPiece:
			pieces = append(pieces, e)
		case EvTransport:
			transports = append(transports, e)
		case EvRetry:
			retries = append(retries, e)
		}
	}
	if len(profiles) != 2 || profiles[0].Worker != 0 || profiles[1].Worker != 1 {
		t.Errorf("profiles = %+v", profiles)
	}
	if len(pieces) != 1 || pieces[0].Name != "stratum-1/2p" || pieces[0].Round != 3 ||
		pieces[0].N != 40 || pieces[0].N2 != 5 || pieces[0].N3 != 1 || pieces[0].N4 != 60 {
		t.Errorf("pieces = %+v", pieces)
	}
	if len(transports) != 1 || transports[0].Name != "0->1" || transports[0].Bytes != 1024 {
		t.Errorf("transports = %+v", transports)
	}
	if len(retries) != 1 || retries[0].N != 1 || retries[0].Duration() != 3*time.Millisecond {
		t.Errorf("retries = %+v", retries)
	}
	if run.Registry.Counter("transport.bytes").Value() != 1024 {
		t.Error("registry counters not updated on flush")
	}
}

// TestWriteTrace checks the Chrome trace-event export: valid JSON, one named
// track per worker plus the master, and phase slices with µs timestamps.
func TestWriteTrace(t *testing.T) {
	events := []Event{
		{Type: EvRunStart, Worker: MasterWorker, N: 2},
		{Type: EvRoundStart, TS: 0, Worker: MasterWorker, Round: 0},
		{Type: EvPhase, TS: 0, Dur: 2000, Worker: 0, Round: 0, Phase: PhaseReason},
		{Type: EvPhase, TS: 0, Dur: 1000, Worker: 1, Round: 0, Phase: PhaseReason},
		{Type: EvPhase, TS: 1000, Dur: 1000, Worker: 1, Round: 0, Phase: PhaseSync},
		{Type: EvFault, TS: 1500, Worker: 1, Round: 0, Name: "injected crash"},
		{Type: EvAdopt, TS: 1800, Worker: 0, Round: 0, N: 1},
		{Type: EvCheckpoint, TS: 500, Worker: 0, Round: 0, N: 10, Bytes: 99},
		{Type: EvPhase, TS: 2000, Dur: 500, Worker: MasterWorker, Phase: PhaseAggregate},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[string]float64{}
	slices := 0
	instants := 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				tracks[e["args"].(map[string]any)["name"].(string)] = e["tid"].(float64)
			}
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	for name, tid := range map[string]float64{"master": 0, "worker 0": 1, "worker 1": 2} {
		if tracks[name] != tid {
			t.Errorf("track %q tid = %v, want %v (tracks: %v)", name, tracks[name], tid, tracks)
		}
	}
	if slices != 4 {
		t.Errorf("slices = %d, want 4", slices)
	}
	if instants != 4 { // round_start, fault, adopt, checkpoint
		t.Errorf("instants = %d, want 4", instants)
	}
}

func TestSummarizeAndReport(t *testing.T) {
	events := []Event{
		{Type: EvPhase, Dur: int64(2 * time.Millisecond), Worker: 0, Phase: PhaseReason},
		{Type: EvPhase, Dur: int64(time.Millisecond), Worker: 0, Phase: PhaseSend},
		{Type: EvPhase, Dur: int64(time.Millisecond), Worker: 0, Phase: PhaseRecv},
		{Type: EvPhase, Dur: int64(3 * time.Millisecond), Worker: 0, Phase: PhaseSync},
		{Type: EvPhase, Dur: int64(4 * time.Millisecond), Worker: 1, Phase: PhaseReason},
		{Type: EvPhase, Dur: int64(5 * time.Millisecond), Worker: MasterWorker, Phase: PhaseAggregate},
		{Type: EvRuleProfile, Worker: 0, Name: "sc-x", N: 3, N2: 4, Dur: int64(time.Millisecond)},
		{Type: EvRuleProfile, Worker: 1, Name: "sc-x", N: 1, N2: 1, Dur: int64(time.Millisecond)},
		{Type: EvTransport, Worker: 0, Name: "0->1", N: 1, N2: 10, Bytes: 100},
		{Type: EvPiece, Worker: 1, Name: "stratum-0/1p", Round: 1, N: 30, N2: 4, N3: 1, N4: 45},
		{Type: EvPiece, Worker: 1, Name: "stratum-1/1p", Round: 2, N: 10, N2: 0, N3: 1, N4: 5},
		{Type: EvRunEnd, Dur: int64(10 * time.Millisecond), Worker: MasterWorker, N: 2},
	}
	workers, rules, transports, _ := Summarize(events)
	if len(workers) != 2 {
		t.Fatalf("workers = %d", len(workers))
	}
	w0 := workers[0]
	if w0.Reason != 2*time.Millisecond || w0.IO() != 2*time.Millisecond || w0.Sync != 3*time.Millisecond {
		t.Errorf("worker 0 profile = %+v", w0)
	}
	if w0.Rounds != 1 || w0.Busy() != 4*time.Millisecond {
		t.Errorf("worker 0 rounds/busy = %d/%v", w0.Rounds, w0.Busy())
	}
	if s := rules["sc-x"]; s.Firings != 4 || s.Matches != 5 {
		t.Errorf("rule sc-x = %+v", s)
	}
	if len(transports) != 1 {
		t.Errorf("transports = %d", len(transports))
	}

	var buf bytes.Buffer
	WriteReport(&buf, events, 5)
	out := buf.String()
	// Worker 1's fire loop: 2 sweeps, 40 delta triples, 50 activations.
	fireRow := regexp.MustCompile(`(?m)^\s+1\s+2\s+40\s+50\s+1\.25$`)
	if !fireRow.MatchString(out) {
		t.Errorf("report has no fire-loop row for worker 1 at 1.25 activations per delta triple:\n%s", out)
	}
	for _, want := range []string{"sc-x", "imbalance", "Fire loop:", "Transport:", "run: 2 rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsHandlerAndDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	srvAddr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srvAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["hits"].(float64) != 3 {
		t.Errorf("metrics = %v", snap)
	}
	// pprof index must be mounted.
	resp2, err := http.Get("http://" + srvAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp2.StatusCode)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		2048:    "2.0KiB",
		1 << 20: "1.0MiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
