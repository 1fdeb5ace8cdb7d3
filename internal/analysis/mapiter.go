package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// MapIter flags `range` over a map whose loop body writes to an ordered sink
// — a writer, encoder, journal emit, transport send, or file save. Go map
// iteration order is randomized per run, so such a loop makes the bytes (or
// the send/fault schedule) nondeterministic, which breaks Simulated-mode
// reconstruction, checkpoint replay and the closure == serial-fixpoint
// assertions. The fix is always the same shape: extract the keys, sort them,
// range over the sorted slice. Loops that only accumulate into other
// in-memory structures (append to a slice that is sorted later, build
// another map) are not flagged.
type MapIter struct{}

// Name implements Analyzer.
func (*MapIter) Name() string { return "mapiter" }

// Doc implements Analyzer.
func (*MapIter) Doc() string {
	return "no ordered sink (write/encode/emit/send/save) inside a range over a map — sort the keys first"
}

// sinkName matches call names whose invocation order or payload order is
// observable outside the process: stream writers, printers, encoders,
// journal emits, transport sends, file saves. Lowercase module-internal
// helpers (writeTriples, writeAtomic, emitPhase) match too.
var sinkName = regexp.MustCompile(`(?i)^(write|fprint|print|encode|emit|save|send|marshal|flush|output)`)

// Run implements Analyzer.
func (a *MapIter) Run(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true // unresolved (stdlib-flavored): unknown, skip
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if call, name := firstSinkCall(rng.Body); call != nil {
				pass.reportf(rng.For,
					"map iteration order reaches an ordered sink (%s at line %d): extract and sort the keys, then range over the slice",
					name, pass.Fset.Position(call.Pos()).Line)
			}
			return true
		})
	}
	return nil
}

// firstSinkCall returns the first call in body (source order, including
// nested blocks but not nested function literals) whose callee name looks
// like an ordered sink, plus the rendered callee for the message. Channel
// sends count as sinks too: the receiver observes arrival order.
func firstSinkCall(body *ast.BlockStmt) (ast.Node, string) {
	var found ast.Node
	var foundName string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate execution context
		case *ast.SendStmt:
			found, foundName = x, "channel send"
			return false
		case *ast.CallExpr:
			var name string
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			default:
				return true
			}
			if sinkName.MatchString(name) {
				found, foundName = x, exprString(x.Fun)
				return false
			}
		}
		return true
	})
	return found, foundName
}
