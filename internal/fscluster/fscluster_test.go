package fscluster

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// prepare writes the product's data plan of ds for k nodes (graph policy,
// seed 42) to dir.
func prepare(t *testing.T, dir string, ds *datagen.Dataset, k int) *core.Plan {
	t.Helper()
	p, err := core.NewPlan(ds, core.Config{Workers: k, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := Prepare(dir, ds.Dict, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// runCluster prepares a work dir and runs k nodes concurrently (goroutines
// standing in for processes — the on-disk protocol is identical).
func runCluster(t *testing.T, ds *datagen.Dataset, k int, engine reason.Engine) ([]*NodeResult, string) {
	t.Helper()
	dir := t.TempDir()
	return runClusterIn(t, dir, ds, k, engine), dir
}

// runClusterIn is runCluster in a given work directory.
func runClusterIn(t *testing.T, dir string, ds *datagen.Dataset, k int, engine reason.Engine) []*NodeResult {
	t.Helper()
	prepare(t, dir, ds, k)
	results := make([]*NodeResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunNode(NodeConfig{
				ID: i, K: k, Dir: dir, Engine: engine,
				Poll: time.Millisecond, Timeout: 2 * time.Minute,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

func TestClusterMatchesSerial(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7, DeptsPerUniv: 4})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		results, dir := runCluster(t, ds, k, reason.Forward{})
		_, merged, err := MergeClosures(dir, k)
		if err != nil {
			t.Fatal(err)
		}
		// Graphs come from different dictionaries, so compare by
		// serialized triple count and a re-serialization equality check.
		if merged.Len() != serial.Graph.Len() {
			t.Fatalf("k=%d: merged closure %d != serial %d", k, merged.Len(), serial.Graph.Len())
		}
		rounds := results[0].Rounds
		for _, r := range results {
			if r.Rounds != rounds {
				t.Errorf("k=%d: nodes disagree on round count: %d vs %d", k, r.Rounds, rounds)
			}
		}
	}
}

func TestClusterSizeRoundTrip(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7})
	_, dir := runCluster(t, ds, 3, reason.Forward{})
	k, err := ClusterSize(dir)
	if err != nil || k != 3 {
		t.Fatalf("ClusterSize = %d, %v", k, err)
	}
}

func TestClusterWithHybridEngine(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, dir := runCluster(t, ds, 2, reason.Hybrid{})
	_, merged, err := MergeClosures(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("hybrid cluster closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}

func TestNodeTimesOutWithoutPeers(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2})
	dir := t.TempDir()
	prepare(t, dir, ds, 2)
	// Run node 0 alone: node 1 never posts markers, so node 0 must time
	// out rather than hang.
	_, err := RunNode(NodeConfig{
		ID: 0, K: 2, Dir: dir,
		Poll: time.Millisecond, Timeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("lone node did not time out")
	}
}

func TestPrepareWritesCompleteLayout(t *testing.T) {
	ds := datagen.UOBM(datagen.UOBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
	dir := t.TempDir()
	if m := prepare(t, dir, ds, 3).Metrics; m == nil || len(m.NodesPerPart) != 3 {
		t.Fatal("metrics missing")
	}
	l := Layout{Dir: dir}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(l.PartFile(i)); err != nil {
			t.Errorf("part file %d missing", i)
		}
	}
	for _, p := range []string{l.RulesFile(), l.OwnerFile(), l.MetaFile()} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s missing", p)
		}
	}
	// Rule file must be re-parseable (round trip through Format).
	if _, err := os.ReadFile(l.RulesFile()); err != nil {
		t.Fatal(err)
	}
}

// TestRoundsProgress: a transitive chain cut across nodes needs > 1 round.
func TestRoundsProgress(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	results, _ := runCluster(t, ds, 4, reason.Forward{})
	totalSent := 0
	for _, r := range results {
		totalSent += r.Sent
	}
	if results[0].Rounds < 2 {
		t.Errorf("expected ≥ 2 rounds, got %d", results[0].Rounds)
	}
	if totalSent == 0 {
		t.Error("no tuples exchanged on a partitioned chain dataset")
	}
}

// TestPrepareMatchesMaterialize: the work directory holds the partition the
// in-process cluster runs for the same input and configuration — the same
// metrics as core.Materialize reports and the owner table of the plan it
// runs — because both take the product's graph tuning from core.NewPlan.
func TestPrepareMatchesMaterialize(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7})
	cfg := core.Config{Workers: 3, Seed: 42}
	res, err := core.Materialize(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlan(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Prepare(dir, ds.Dict, p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p.Metrics, *res.Metrics) {
		t.Fatalf("prepared partition IR=%.3f nodes/part=%v, core.Materialize IR=%.3f nodes/part=%v",
			p.Metrics.IR, p.Metrics.NodesPerPart, res.Metrics.IR, res.Metrics.NodesPerPart)
	}
	owner, err := readOwnerTable(Layout{Dir: dir}.OwnerFile(), ds.Dict)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range p.Owner {
		got := int32(-1)
		if id < len(owner) {
			got = owner[id]
		}
		if got != want {
			t.Fatalf("owner file gives %s partition %d, the plan %d", ds.Dict.Term(rdf.ID(id)), got, want)
		}
	}
	if len(owner) > len(p.Owner) {
		t.Fatalf("owner file names %d IDs, the plan %d", len(owner), len(p.Owner))
	}
}

// TestPrepareIsByteStable: two Prepare runs over the same (dataset, seed)
// must lay out byte-identical work directories — the ownership table, part
// files and rule file are run artifacts that checkpoint replay and the chaos
// CI diff both compare. Map iteration order must never leak into them
// (owlvet's mapiter check guards the code path; this pins the bytes).
func TestPrepareIsByteStable(t *testing.T) {
	const k = 3
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		// A fresh dataset per run: internal map layouts differ, bytes must not.
		ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
		prepare(t, dir, ds, k)
	}
	l0, l1 := Layout{Dir: dirs[0]}, Layout{Dir: dirs[1]}
	files := [][2]string{
		{l0.OwnerFile(), l1.OwnerFile()},
		{l0.RulesFile(), l1.RulesFile()},
		{l0.MetaFile(), l1.MetaFile()},
	}
	for i := 0; i < k; i++ {
		files = append(files, [2]string{l0.PartFile(i), l1.PartFile(i)})
	}
	for _, pair := range files {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between identical Prepare runs (%d vs %d bytes)",
				filepath.Base(pair[0]), len(a), len(b))
		}
	}
}

// TestReusedDirStartsClean: a work directory reused for another dataset must
// not hand the second run the first run's epochs, markers, messages or
// checkpoints. Every node starts fresh, and the merged closure is exactly
// the second dataset's serial fixpoint.
func TestReusedDirStartsClean(t *testing.T) {
	dir := t.TempDir()
	runClusterIn(t, dir, datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7}), 3, reason.Forward{})
	second := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
	serial, err := core.Materialize(second, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runClusterIn(t, dir, second, 3, reason.Forward{}) {
		if r.Epoch != 1 || r.StartRound != 0 {
			t.Errorf("node %d: epoch %d start round %d, want a fresh start", i, r.Epoch, r.StartRound)
		}
	}
	_, merged, err := MergeClosures(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("second run in a reused dir: merged %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}
