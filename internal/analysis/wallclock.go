package analysis

import (
	"go/ast"
	"strings"
)

// WallClock flags time.Now and time.Since outside the packages where real
// time is architecturally sanctioned. Simulated mode reconstructs parallel
// elapsed time from replayed per-worker costs and stamps its journal on that
// reconstructed clock; a wall-clock read leaking into partitioning, rule
// evaluation order, checkpoint contents or simulated timestamps makes runs
// unreproducible. Real time is legitimate in:
//
//   - internal/obs — it owns the run clock (Run.Now) and the journal;
//   - internal/transport — dial/ack deadlines, backoff;
//   - cmd/* and examples/* — operator-facing wall-clock reporting.
//
// Everywhere else a time.Now is either a measured duration that feeds the
// cost model (annotate it: //powl:ignore wallclock <why>) or a bug.
type WallClock struct{}

// Name implements Analyzer.
func (*WallClock) Name() string { return "wallclock" }

// Doc implements Analyzer.
func (*WallClock) Doc() string {
	return "no time.Now/time.Since outside obs, transport, cmd and examples — Simulated mode runs on a reconstructed clock"
}

// wallclockAllowed are the import-path prefixes (relative to the module
// path) where real-time reads are sanctioned wholesale.
var wallclockAllowed = []string{
	"internal/obs",
	"internal/transport",
	"cmd/",
	"examples/",
}

// Run implements Analyzer.
func (a *WallClock) Run(pass *Pass) error {
	rel := pass.Pkg.Path
	if i := strings.Index(rel, "/"); i >= 0 {
		rel = rel[i+1:]
	} else {
		rel = "" // module root package
	}
	for _, prefix := range wallclockAllowed {
		if strings.HasSuffix(prefix, "/") {
			if strings.HasPrefix(rel, prefix) {
				return nil
			}
		} else if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return nil
		}
	}
	for _, f := range pass.Files {
		if FileIsTest(pass.Fset, f.Pos()) {
			continue // test harness timing is not run output
		}
		timeName, ok := importName(f, "time")
		if !ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
				return true
			}
			if !pass.isPkgSelector(sel, timeName, sel.Sel.Name) {
				return true
			}
			pass.reportf(sel.Pos(),
				"wall-clock read (time.%s) outside the sanctioned packages: derive it from the run clock or annotate why real time is correct here",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
