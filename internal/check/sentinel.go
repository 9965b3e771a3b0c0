package check

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// SentinelAnalyzer enforces the sentinel-error contract: package-level
// error values named Err*/err* (ErrPartitioned, ErrCycleLimit,
// ErrDeadlock, ...) are matched with errors.Is, never == / != and never
// by comparing err.Error() text. The sentinels here are routinely
// wrapped (%w, the routing fault wrappers), so a direct
// comparison compiles, passes the happy-path test, and silently stops
// matching the wrapped form — the exact bug class errors.Is exists for.
var SentinelAnalyzer = &analysis.Analyzer{
	Name: "sldfsentinel",
	Doc: "sentinel errors must be matched with errors.Is, not ==/!= or " +
		"err.Error() string comparison",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runSentinel,
}

func runSentinel(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.BinaryExpr)(nil), (*ast.SwitchStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			if isNil(pass, n.X) || isNil(pass, n.Y) {
				return // err == nil is the one blessed direct comparison
			}
			if sentinelRef(pass, n.X) != nil || sentinelRef(pass, n.Y) != nil {
				pass.Reportf(n.OpPos, "sentinel error compared with %s: wrapped errors will not match; use errors.Is", n.Op)
				return
			}
			if isErrorText(pass, n.X) || isErrorText(pass, n.Y) {
				pass.Reportf(n.OpPos, "comparing err.Error() text: brittle against wrapping and message edits; use errors.Is (or errors.As)")
			}
		case *ast.SwitchStmt:
			// switch err { case ErrX: } compares with == per case.
			if n.Tag == nil || !isErrorType(pass.TypesInfo.TypeOf(n.Tag)) {
				return
			}
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if sentinelRef(pass, e) != nil {
						pass.Reportf(e.Pos(), "sentinel error in a switch case compares with ==: wrapped errors will not match; use errors.Is in if/else chains or switch { case errors.Is(...) }")
					}
				}
			}
		}
	})
	return nil, nil
}

// sentinelRef resolves an expression to a package-level error variable
// whose name marks it as a sentinel (Err... / err...), in this package
// or any imported one.
func sentinelRef(pass *analysis.Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	name := v.Name()
	if strings.HasPrefix(name, "Err") || strings.HasPrefix(name, "err") {
		return v
	}
	return nil
}

// isErrorText reports whether e is a call of the error interface's
// Error() method — the telltale of string-matching an error.
func isErrorText(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return isErrorType(pass.TypesInfo.TypeOf(sel.X))
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type()) ||
		types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
