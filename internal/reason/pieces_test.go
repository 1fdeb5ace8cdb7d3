package reason

import (
	"testing"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// ruleHB builds a single-head rule whose body and head atoms all use
// constant predicates — the shape stratify's predicate-overlap analysis
// keys on.
func ruleHB(name string, head rdf.ID, body ...rdf.ID) rules.Rule {
	r := rules.Rule{Name: name}
	for i, p := range body {
		v := string(rune('a' + i))
		r.Body = append(r.Body, rules.Atom{
			S: rules.Var("x" + v), P: rules.Const(p), O: rules.Var("y" + v),
		})
	}
	r.Head = []rules.Atom{{S: rules.Var("xa"), P: rules.Const(head), O: rules.Var("ya")}}
	return r
}

func TestStratify(t *testing.T) {
	const (
		p0 = rdf.ID(10)
		p1 = rdf.ID(11)
		p2 = rdf.ID(12)
		p3 = rdf.ID(13)
		p4 = rdf.ID(14)
		p5 = rdf.ID(15)
	)
	// r0: p1 ← p0          (level 0; nothing produces p0)
	// r1: p2 ← p1          (level 1, fed by r0)
	// r2: p3 ← p0          (level 0, independent of r0 — second piece)
	// r3: p4 ← p2, p5      (cycle with r4 through p4/p5; fed by r1 → level 2)
	// r4: p5 ← p4
	crs := mustCompile([]rules.Rule{
		ruleHB("r0", p1, p0),
		ruleHB("r1", p2, p1),
		ruleHB("r2", p3, p0),
		ruleHB("r3", p4, p2, p5),
		ruleHB("r4", p5, p4),
	}).rules
	strata := stratify(crs)
	if len(strata) != 3 {
		t.Fatalf("got %d strata, want 3: %+v", len(strata), strata)
	}
	if len(strata[0]) != 2 {
		t.Fatalf("stratum 0 has %d pieces, want 2 (r0 and r2 are independent): %+v", len(strata[0]), strata[0])
	}
	flat := func(ps []piece) map[int]bool {
		out := map[int]bool{}
		for _, p := range ps {
			for _, r := range p.rules {
				out[r] = true
			}
		}
		return out
	}
	if got := flat(strata[0]); !got[0] || !got[2] || len(got) != 2 {
		t.Errorf("stratum 0 rules = %v, want {r0, r2}", got)
	}
	if got := flat(strata[1]); !got[1] || len(got) != 1 {
		t.Errorf("stratum 1 rules = %v, want {r1}", got)
	}
	if len(strata[2]) != 1 || len(strata[2][0].rules) != 2 {
		t.Fatalf("stratum 2 should be one piece of the r3/r4 cycle: %+v", strata[2])
	}
	if got := flat(strata[2]); !got[3] || !got[4] {
		t.Errorf("stratum 2 rules = %v, want {r3, r4}", got)
	}

	// Every rule appears exactly once across all strata.
	seen := map[int]int{}
	for _, st := range strata {
		for r := range flat(st) {
			seen[r]++
		}
	}
	if len(seen) != len(crs) {
		t.Errorf("stratification covers %d of %d rules", len(seen), len(crs))
	}

	// A variable-predicate body atom is a conservative edge from everything,
	// pulling the rule into a cycle with any producer it feeds.
	wild := []rules.Rule{
		ruleHB("w0", p1, p0),
		{
			Name: "w1",
			Body: []rules.Atom{{S: rules.Var("x"), P: rules.Var("p"), O: rules.Var("y")}},
			Head: []rules.Atom{{S: rules.Var("x"), P: rules.Const(p0), O: rules.Var("y")}},
		},
	}
	ws := stratify(mustCompile(wild).rules)
	if len(ws) != 1 || len(ws[0]) != 1 || len(ws[0][0].rules) != 2 {
		t.Errorf("wildcard-predicate rules should collapse into one piece, got %+v", ws)
	}

	if s := stratify(nil); s != nil {
		t.Errorf("stratify(nil) = %+v, want nil", s)
	}
}
