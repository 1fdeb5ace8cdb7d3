package fscluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"powl/internal/datagen"
	"powl/internal/faultinject"
	"powl/internal/owlhorst"
	"powl/internal/rdf"
	"powl/internal/refclosure"
)

// TestNodeKillScheduleProperty is the node-process twin of cluster's
// TestKillScheduleProperty: per seed, k in {2,3,4} nodes (goroutines here;
// the protocol is the files) run one dataset under Supervise, and one
// seeded node crashes at a seeded round. The merged closure must equal the
// independent reference closure (internal/refclosure). A failure names the
// seed and its schedule.
func TestNodeKillScheduleProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		fields := 2 + rng.Intn(3)
		victim, crash := rng.Intn(k), 1+rng.Intn(3)
		schedule := fmt.Sprintf("seed=%d k=%d mdc-fields=%d crash: node %d at round %d",
			seed, k, fields, victim, crash)
		t.Log(schedule)

		ds := datagen.MDC(datagen.MDCConfig{Fields: fields, Seed: seed})
		compiled := owlhorst.Compile(ds.Dict, ds.Graph)
		ref := refclosure.Closure(append(owlhorst.SplitInstance(ds.Dict, ds.Graph),
			compiled.Schema.Triples()...), compiled.InstanceRules)

		injectors := make([]*faultinject.Injector, k)
		injectors[victim] = faultinject.New(faultinject.Config{CrashRound: crash})
		errs, sup, dir := runSupervisedCluster(t, ds, k, injectors)
		for i, err := range errs {
			if err != nil && (i != victim || !errors.Is(err, ErrCrashed)) {
				t.Fatalf("%s: node %d: %v", schedule, i, err)
			}
		}
		if _, dead := sup.Dead[victim]; errs[victim] != nil && !dead {
			t.Fatalf("%s: crashed node never declared dead", schedule)
		}
		mdict, merged, err := MergeClosures(dir, k)
		if err != nil {
			t.Fatalf("%s: %v", schedule, err)
		}
		nt := func(d *rdf.Dict, tr rdf.Triple) string {
			return d.Term(tr.S).String() + " " + d.Term(tr.P).String() + " " + d.Term(tr.O).String()
		}
		want := make(map[string]bool, len(ref))
		for tr := range ref {
			want[nt(ds.Dict, tr)] = true
		}
		if merged.Len() != len(want) {
			t.Fatalf("%s: merged closure %d triples, reference %d", schedule, merged.Len(), len(want))
		}
		for _, tr := range merged.Triples() {
			if !want[nt(mdict, tr)] {
				t.Fatalf("%s: merged closure holds %s, which the reference lacks", schedule, nt(mdict, tr))
			}
		}
	}
}
