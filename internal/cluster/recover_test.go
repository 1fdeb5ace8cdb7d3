package cluster

import (
	"context"
	"testing"
	"time"

	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/transport"
)

func testTriples(n int) (*rdf.Dict, []rdf.Triple) {
	dict := rdf.NewDict()
	p := dict.InternIRI("http://t/p")
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: dict.InternIRI("http://t/s"),
			P: p,
			O: dict.InternIRI(string(rune('a' + i))),
		}
	}
	return dict, ts
}

// TestCheckpointStores: both stores must return everything saved for a
// worker and nothing saved for others, triples and lineage alike;
// DirCheckpoints must round-trip through its N-Triples and JSONL files.
func TestCheckpointStores(t *testing.T) {
	dict, ts := testTriples(5)
	dir, err := NewDirCheckpoints(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]CheckpointStore{
		"mem": NewMemCheckpoints(),
		"dir": dir,
	} {
		if err := store.Save(1, 0, ts[:2]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := store.Save(1, 1, ts[2:4]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := store.Save(2, 0, ts[4:]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := store.Load(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 4 {
			t.Fatalf("%s: worker 1 load = %d triples, want 4", name, len(got))
		}
		other, err := store.Load(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(other) != 0 {
			t.Fatalf("%s: worker 3 should have no checkpoints, got %d", name, len(other))
		}
		lin := rdf.Lineage{T: ts[2], Rule: "r", Round: 1, Prem: ts[:2]}
		if err := store.SaveLineage(1, 1, []rdf.Lineage{lin}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lins, err := store.LoadLineage(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(lins) != 1 || lins[0].T != lin.T || lins[0].Rule != "r" || lins[0].Round != 1 ||
			len(lins[0].Prem) != 2 || lins[0].Prem[0] != ts[0] || lins[0].Prem[1] != ts[1] {
			t.Fatalf("%s: lineage round trip = %+v", name, lins)
		}
		if none, err := store.LoadLineage(2); err != nil || len(none) != 0 {
			t.Fatalf("%s: worker 2 lineage = %v, %v", name, none, err)
		}
	}
}

// TestDirCheckpointsSurviveReopen: a directory store reopened on the same
// path (a restarted process) must still serve the old deltas.
func TestDirCheckpointsSurviveReopen(t *testing.T) {
	dict, ts := testTriples(3)
	dir := t.TempDir()
	s1, err := NewDirCheckpoints(dir, dict)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(0, 2, ts); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirCheckpoints(dir, dict)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("reopened store served %d triples, want 3", len(got))
	}
}

// TestDetectorDeclaresLaggard: the failure detector must declare dead a
// worker that trails the barrier frontier past the deadline, cancel its
// context, assign its partition to the lowest live worker, and journal the
// death — all without any self-report from the victim.
func TestDetectorDeclaresLaggard(t *testing.T) {
	sink := &obs.MemSink{}
	o := obs.NewRun(sink, nil)
	rc := RecoveryConfig{RoundDeadline: 30 * time.Millisecond}.withDefaults()
	bar := newBarrier(3)
	coord := newCoordinator(3, rc, bar, o, make([]Assignment, 3))
	cancelled := make(chan struct{})
	_, cancel := context.WithCancel(context.Background())
	coord.cancels[2] = func() { cancel(); close(cancelled) }

	detCtx, detCancel := context.WithCancel(context.Background())
	defer detCancel()
	go coord.detect(detCtx)

	// Workers 0 and 1 make progress; worker 2 never arrives.
	for round := 0; round < 3; round++ {
		coord.atBarrier(0, round)
		coord.atBarrier(1, round)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !coord.isDead(2) {
		if time.Now().After(deadline) {
			t.Fatal("detector never declared the laggard dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-cancelled:
	case <-time.After(time.Second):
		t.Fatal("victim's context was not cancelled")
	}
	if got := coord.takePending(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("worker 0 should have victim 2 pending, got %v", got)
	}
	var death bool
	for _, e := range sink.Events() {
		if e.Type == obs.EvDeath && e.Worker == 2 && e.Name == "timeout" {
			death = true
		}
	}
	if !death {
		t.Fatal("journal missing timeout death event")
	}
}

// TestDetectorSparesProgressingWorkers: workers advancing with the frontier
// must never be declared dead, however long the run.
func TestDetectorSparesProgressingWorkers(t *testing.T) {
	rc := RecoveryConfig{RoundDeadline: 20 * time.Millisecond}.withDefaults()
	coord := newCoordinator(2, rc, newBarrier(2), nil, make([]Assignment, 2))
	detCtx, detCancel := context.WithCancel(context.Background())
	defer detCancel()
	go coord.detect(detCtx)
	for round := 0; round < 10; round++ {
		coord.atBarrier(0, round)
		coord.atBarrier(1, round)
		time.Sleep(10 * time.Millisecond)
	}
	if coord.isDead(0) || coord.isDead(1) {
		t.Fatal("detector killed a healthy worker")
	}
}

// TestBarrierRemove: shrinking the barrier while survivors wait must release
// the generation with the sentinel deposit included in the sum.
func TestBarrierRemove(t *testing.T) {
	bar := newBarrier(3)
	type res struct {
		sum int
		ok  bool
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(n int) {
			sum, ok, _ := bar.syncCtx(context.Background(), n)
			results <- res{sum, ok}
		}(i + 1)
	}
	time.Sleep(20 * time.Millisecond) // let both arrive
	bar.remove(1)                     // third party died; deposit sentinel
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if !r.ok {
				t.Fatal("barrier aborted instead of resizing")
			}
			if r.sum != 1+2+1 {
				t.Fatalf("sum = %d, want 4 (1+2+sentinel)", r.sum)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("survivors stuck after remove")
		}
	}
	// The shrunk barrier must keep working at k=2.
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			sum, _, _ := bar.syncCtx(context.Background(), 5)
			done <- sum
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case sum := <-done:
			if sum != 10 {
				t.Fatalf("post-remove generation sum = %d, want 10", sum)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("post-remove generation stuck")
		}
	}
}

// TestRecoveryWithDirCheckpoints: the end-to-end kill test also passes with
// the directory-backed store (the deployment shape for process death).
func TestRecoveryWithDirCheckpoints(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	store, err := NewDirCheckpoints(t.TempDir(), f.dict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Concurrent,
		Recovery:  &RecoveryConfig{Store: store},
		Inject: []*faultinject.Injector{
			nil,
			faultinject.New(faultinject.Config{CrashRound: 2}),
			nil,
		},
	}, f.assignments(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch with dir checkpoints: got %d want %d",
			res.Graph.Len(), f.closed.Len())
	}
}
