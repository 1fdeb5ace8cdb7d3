package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"powl/internal/faultinject"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/refclosure"
	"powl/internal/transport"
)

// TestKillScheduleProperty drives Run through seeded kill schedules: per
// seed a worker count k in {2,3,4}, a chain length, a transport, a mode, and
// crash rounds for one to k-1 workers. Whoever dies, the run must close to
// the independent reference closure (internal/refclosure). A failure names
// the seed and its schedule, which replays it exactly.
func TestKillScheduleProperty(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		n := 8 + rng.Intn(13)
		kind := []string{"mem", "file", "tcp"}[rng.Intn(3)]
		mode := []Mode{Concurrent, Simulated}[rng.Intn(2)]
		inject := make([]*faultinject.Injector, k)
		crashes := map[int]int{} // worker -> crash round
		for _, v := range rng.Perm(k)[:1+rng.Intn(k-1)] {
			crashes[v] = 1 + rng.Intn(3)
			inject[v] = faultinject.New(faultinject.Config{CrashRound: crashes[v]})
		}
		schedule := fmt.Sprintf("seed=%d k=%d n=%d transport=%s mode=%d crashes(worker:round)=%v",
			seed, k, n, kind, mode, crashes)
		t.Log(schedule)

		f := newChainFixture(t, n, k)
		var tr transport.Transport = transport.NewMem()
		var err error
		switch kind {
		case "file":
			tr, err = transport.NewFile(t.TempDir(), f.dict)
		case "tcp":
			tr, err = transport.NewTCP(k, f.dict)
		}
		if err != nil {
			t.Fatalf("%s: %v", schedule, err)
		}
		assigns := f.assignments(k)
		res, err := Run(Config{
			Engine:    reason.Forward{},
			Transport: tr,
			Router:    ownerRouter{f.owner},
			Mode:      mode,
			Recovery:  &RecoveryConfig{},
			Inject:    inject,
		}, assigns)
		tr.Close()
		if err != nil {
			t.Fatalf("%s: run failed: %v", schedule, err)
		}
		var base []rdf.Triple
		for _, a := range assigns {
			base = append(base, a.Base...)
		}
		ref := refclosure.Closure(base, f.rules)
		if res.Graph.Len() != len(ref) {
			t.Fatalf("%s: closure has %d triples, reference %d (recovered %v)",
				schedule, res.Graph.Len(), len(ref), res.Recovered)
		}
		for _, tr := range res.Graph.Triples() {
			if _, ok := ref[tr]; !ok {
				t.Fatalf("%s: derived %v, which the reference closure lacks", schedule, tr)
			}
		}
	}
}
