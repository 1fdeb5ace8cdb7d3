package core

import (
	"testing"

	"powl/internal/datagen"
	"powl/internal/owlhorst"
	"powl/internal/refclosure"
)

// TestClosureMatchesReferenceStore materializes the Quick-scale LUBM and
// UOBM datasets through the production path (compact graph store + forward
// engine) and through the naive reference evaluator (package refclosure),
// and requires identical closures. This is the end-to-end guard for the
// store and the fire loop: any divergence in indexing, dedup, match
// extents, or join ordering shows up as a closure mismatch here.
func TestClosureMatchesReferenceStore(t *testing.T) {
	if testing.Short() {
		t.Skip("closure cross-check is slow under -short")
	}
	datasets := []*datagen.Dataset{
		datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 7}),
		datagen.UOBM(datagen.UOBMConfig{Universities: 2, Seed: 7}),
	}
	for _, ds := range datasets {
		t.Run(ds.Name, func(t *testing.T) {
			res, err := MaterializeSerial(ds, ForwardEngine)
			if err != nil {
				t.Fatal(err)
			}

			compiled := owlhorst.Compile(ds.Dict, ds.Graph)
			base := append(owlhorst.SplitInstance(ds.Dict, ds.Graph), compiled.Schema.Triples()...)
			ref := refclosure.Closure(base, compiled.InstanceRules)

			if res.Graph.Len() != len(ref) {
				t.Fatalf("closure size mismatch: graph store %d, reference %d", res.Graph.Len(), len(ref))
			}
			for _, tr := range res.Graph.Triples() {
				if _, ok := ref[tr]; !ok {
					t.Fatalf("graph store derived %v; reference closure does not contain it", tr)
				}
			}
		})
	}
}
