package fscluster

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/reason"
)

// runSupervisedCluster runs k nodes plus the supervisor; injectors[i] (may be
// nil) is node i's fault schedule. Node errors are returned per node rather
// than failing the test, so crash injection can be asserted on.
func runSupervisedCluster(t *testing.T, ds *datagen.Dataset, k int, injectors []*faultinject.Injector) ([]error, *SuperviseResult, string) {
	t.Helper()
	dir := t.TempDir()
	prepare(t, dir, ds, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunNode(NodeConfig{
				ID: i, K: k, Dir: dir, Engine: reason.Forward{},
				Poll: time.Millisecond, Timeout: time.Minute,
				Inject: injectors[i],
			})
		}(i)
	}
	sup, supErr := Supervise(context.Background(), SuperviseConfig{
		Dir: dir, K: k,
		RoundDeadline: 500 * time.Millisecond,
		Timeout:       time.Minute,
	})
	wg.Wait()
	if supErr != nil {
		t.Fatalf("supervisor: %v", supErr)
	}
	return errs, sup, dir
}

// TestWorkerCrashRecovers is the kill-a-worker acceptance test: one node
// fail-stops mid-run, the supervisor declares it dead, a surviving node
// adopts its partition from the checkpoints, and the merged closure still
// matches the sequential fixpoint exactly.
func TestWorkerCrashRecovers(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k, victim = 3, 2
	injectors := make([]*faultinject.Injector, k)
	injectors[victim] = faultinject.New(faultinject.Config{CrashRound: 2})

	errs, sup, dir := runSupervisedCluster(t, ds, k, injectors)
	if !errors.Is(errs[victim], ErrCrashed) {
		t.Fatalf("victim error = %v, want ErrCrashed", errs[victim])
	}
	for i, err := range errs {
		if i != victim && err != nil {
			t.Fatalf("survivor %d failed: %v", i, err)
		}
	}
	adopter, ok := sup.Dead[victim]
	if !ok {
		t.Fatal("supervisor never declared the victim dead")
	}
	if adopter == victim || adopter < 0 || adopter >= k {
		t.Fatalf("bad adopter %d", adopter)
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("recovered closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}

// TestImmediateCrashRecovers: the victim dies before completing any round, so
// the adopter reconstructs it purely from the base partition (no checkpoints
// exist yet).
func TestImmediateCrashRecovers(t *testing.T) {
	ds := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 3})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k, victim = 3, 1
	injectors := make([]*faultinject.Injector, k)
	injectors[victim] = faultinject.New(faultinject.Config{CrashRound: 1})

	errs, sup, dir := runSupervisedCluster(t, ds, k, injectors)
	if !errors.Is(errs[victim], ErrCrashed) {
		t.Fatalf("victim error = %v, want ErrCrashed", errs[victim])
	}
	if _, ok := sup.Dead[victim]; !ok {
		t.Fatal("supervisor never declared the victim dead")
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("recovered closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}

// TestSuperviseCleanRun: with no failures the supervisor declares nobody dead
// and returns once all closures are on disk.
func TestSuperviseCleanRun(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7})
	errs, sup, _ := runSupervisedCluster(t, ds, 2, make([]*faultinject.Injector, 2))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if len(sup.Dead) != 0 {
		t.Fatalf("clean run declared deaths: %v", sup.Dead)
	}
}

// TestMergeReconstructsLateDeath: a node that died after its last marker but
// before writing its closure file has no adopter (everyone else already
// finished); MergeClosures must rebuild its state from base + checkpoints +
// messages on the master side.
func TestMergeReconstructsLateDeath(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	dir := t.TempDir()
	prepare(t, dir, ds, k)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunNode(NodeConfig{
				ID: i, K: k, Dir: dir, Engine: reason.Forward{},
				Poll: time.Millisecond, Timeout: time.Minute,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Simulate the late death: node 1's closure never made it to disk, and
	// the supervisor flagged it.
	l := Layout{Dir: dir}
	if err := os.Remove(l.ClosureFile(1)); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(l.DeadFile(1), "0"); err != nil {
		t.Fatal(err)
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("reconstructed closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}

// TestNodeRejoinsAfterRestart: a crashed node whose dead-file was never
// written (no supervisor ran) restarts against the same work directory and
// rejoins the run in progress — epoch bumped, state reconstructed from its
// own checkpoints and inbox, round loop re-entered where it left off — and
// the merged closure still matches the sequential fixpoint.
func TestNodeRejoinsAfterRestart(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 4, Seed: 7})
	serial, err := core.Materialize(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	dir := t.TempDir()
	prepare(t, dir, ds, k)

	// Node 0 runs normally; it will block at the barrier while node 1 is down.
	done := make(chan error, 1)
	go func() {
		_, err := RunNode(NodeConfig{
			ID: 0, K: k, Dir: dir, Engine: reason.Forward{},
			Poll: time.Millisecond, Timeout: time.Minute,
		})
		done <- err
	}()

	// Node 1's first incarnation completes round 0 and dies entering round 1.
	first, err := RunNode(NodeConfig{
		ID: 1, K: k, Dir: dir, Engine: reason.Forward{},
		Poll: time.Millisecond, Timeout: time.Minute,
		Inject: faultinject.New(faultinject.Config{CrashRound: 2}),
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("first incarnation: err = %v, want ErrCrashed", err)
	}
	if first != nil {
		t.Fatalf("crashed node returned a result: %+v", first)
	}

	// The restarted process: same id, same dir, fresh everything else.
	sink := &obs.MemSink{}
	second, err := RunNode(NodeConfig{
		ID: 1, K: k, Dir: dir, Engine: reason.Forward{},
		Poll: time.Millisecond, Timeout: time.Minute,
		Obs: obs.NewRun(sink, nil),
	})
	if err != nil {
		t.Fatalf("rejoin failed: %v", err)
	}
	if second.Epoch != 2 {
		t.Fatalf("rejoined epoch = %d, want 2", second.Epoch)
	}
	if second.StartRound != 1 {
		t.Fatalf("rejoined start round = %d, want 1", second.StartRound)
	}
	var rejoined bool
	for _, e := range sink.Events() {
		if e.Type == obs.EvRejoin && e.Worker == 1 && e.N == 2 {
			rejoined = true
		}
	}
	if !rejoined {
		t.Fatal("journal missing rejoin event")
	}
	if err := <-done; err != nil {
		t.Fatalf("node 0: %v", err)
	}
	_, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != serial.Graph.Len() {
		t.Fatalf("rejoined closure %d != serial %d", merged.Len(), serial.Graph.Len())
	}
}

// TestRejoinRefusedWhenAdopted: once a supervisor has handed the partition
// to an adopter, a restart of the dead node must refuse to run — two nodes
// serving one inbox would split the partition's state.
func TestRejoinRefusedWhenAdopted(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7})
	dir := t.TempDir()
	prepare(t, dir, ds, 2)
	l := Layout{Dir: dir}
	if err := writeAtomic(l.EpochFile(1), "1"); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(l.DeadFile(1), "0"); err != nil {
		t.Fatal(err)
	}
	_, err := RunNode(NodeConfig{ID: 1, K: 2, Dir: dir,
		Poll: time.Millisecond, Timeout: time.Second})
	if err == nil || !strings.Contains(err.Error(), "cannot rejoin") {
		t.Fatalf("adopted node restarted anyway: err = %v", err)
	}
}

// TestRunNodeContextCancel: a node whose peers never show up stops on context
// cancellation instead of waiting out the barrier timeout.
func TestRunNodeContextCancel(t *testing.T) {
	ds := datagen.MDC(datagen.MDCConfig{Fields: 2, Seed: 7})
	dir := t.TempDir()
	prepare(t, dir, ds, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunNodeContext(ctx, NodeConfig{
			ID: 0, K: 2, Dir: dir,
			Poll: time.Millisecond, Timeout: time.Minute,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled node kept waiting at the barrier")
	}
}

// TestMarkerPostsAreExclusive: after a false positive the adopter and the
// node it declared dead both post the dead node's round marker — the
// adopter its sentinel 1, the node its own count. Whichever lands first
// stays: the other post changes nothing, the late node gets an error (and
// steps aside), and every node that reads the round sums the same total.
func TestMarkerPostsAreExclusive(t *testing.T) {
	for _, victimFirst := range []bool{true, false} {
		dir := t.TempDir()
		l := Layout{Dir: dir}
		if err := os.MkdirAll(l.run(""), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeAtomic(l.DeadFile(1), "0"); err != nil {
			t.Fatal(err)
		}
		node := func() *markers {
			return &markers{l: l, k: 3, poll: time.Millisecond, timeout: 10 * time.Second}
		}
		marker := l.MarkerFile(0, 1)
		waitMarker := func() {
			for !exists(marker) {
				time.Sleep(time.Millisecond)
			}
		}
		type sum struct {
			id, total int
			err       error
		}
		sums := make(chan sum, 3)
		post := func(id, sent int) {
			total, err := node().Sync(context.Background(), id, 0, sent)
			sums <- sum{id, total, err}
		}
		want := "1" // the adopter's sentinel
		if victimFirst {
			want = "5"
			go post(1, 5)
			waitMarker()
			// The adopter's sentinel, had it found the marker missing a
			// moment earlier, now loses.
			if posted, err := postMarker(marker, "1"); err != nil || posted {
				t.Fatalf("sentinel over a posted marker: posted=%v err=%v", posted, err)
			}
			go post(0, 0)
			go post(2, 2)
		} else {
			go post(0, 0)
			waitMarker()
			go post(1, 5)
			go post(2, 2)
		}
		totals := map[int]bool{}
		for range 3 {
			s := <-sums
			if (s.err != nil) != (!victimFirst && s.id == 1) {
				t.Fatalf("victimFirst=%v: node %d: err=%v", victimFirst, s.id, s.err)
			}
			if s.err == nil {
				totals[s.total] = true
			}
		}
		if b, err := os.ReadFile(marker); err != nil || string(b) != want {
			t.Fatalf("victimFirst=%v: marker holds %q (%v), want %q", victimFirst, b, err, want)
		}
		if len(totals) != 1 {
			t.Fatalf("victimFirst=%v: nodes read different totals %v", victimFirst, totals)
		}
		if !node().Dead(1) {
			t.Fatal("dead-file gone")
		}
	}
}
