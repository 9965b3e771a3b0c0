package check

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CacheKeyAnalyzer machine-checks content-address completeness: a
// key-serialization function annotated //sldf:cachekey <Type> must
// reference every exported field of that spec struct — directly or
// through same-package functions it calls — unless the field is marked
// //sldf:keyignore <reason> at its declaration. A spec field that is
// neither in the key nor explicitly declared result-neutral is exactly
// how two different measurements come to share a cache slot (SimParams
// shows both sides: Engine partitions the key, while the result-neutral
// FlowWorkers/FlowCold are keyignore).
var CacheKeyAnalyzer = &analysis.Analyzer{
	Name: "sldfcachekey",
	Doc: "check that //sldf:cachekey <Type> functions reference every " +
		"exported field of the spec type; exempt execution knobs with " +
		"//sldf:keyignore <reason> on the field",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCacheKey,
}

const keyIgnore = "keyignore"

func runCacheKey(pass *analysis.Pass) (any, error) {
	fd := newFileDirectives(pass)
	fd.reportNaked(keyIgnore)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		f := enclosingFile(pass, decl.Pos())
		if f == nil {
			return
		}
		for _, d := range fd.at(f, decl.Pos(), "cachekey") {
			if d.arg == "" {
				pass.Reportf(d.pos, "//sldf:cachekey needs a type name argument")
				continue
			}
			checkKeyFunc(pass, fd, decl, d.arg)
		}
	})
	return nil, nil
}

func checkKeyFunc(pass *analysis.Pass, fd *fileDirectives, decl *ast.FuncDecl, typeName string) {
	named := resolveNamed(pass, typeName)
	if named == nil {
		pass.Reportf(decl.Name.Pos(), "//sldf:cachekey %s: cannot resolve the type in this package or its imports", typeName)
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(decl.Name.Pos(), "//sldf:cachekey %s: not a struct type", typeName)
		return
	}

	used := make(map[string]bool)
	wholeUse := collectFieldUses(pass, decl, named, used)

	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !field.Exported() || used[field.Name()] || wholeUse {
			continue
		}
		if ignored, naked := fieldKeyIgnored(pass, fd, named, field.Name()); ignored {
			continue
		} else if naked {
			continue // the naked-directive diagnostic already fired
		}
		pass.Reportf(decl.Name.Pos(),
			"cache key for %s never reads exported field %s: a spec that differs only in %s would replay the wrong cached result (serialize it, or mark the field //sldf:keyignore <reason>)",
			typeName, field.Name(), field.Name())
	}
}

// collectFieldUses walks the transitive same-package call closure of the
// key function and marks every field of the spec type that is selected.
// It returns true when a whole value of the type escapes to another
// package (fmt %+v, json.Marshal, ...), which serializes every field at
// once and satisfies the check wholesale.
func collectFieldUses(pass *analysis.Pass, root *ast.FuncDecl, named *types.Named, used map[string]bool) bool {
	decls := packageFuncDecls(pass)
	visited := map[*ast.FuncDecl]bool{}
	wholeUse := false
	var walk func(d *ast.FuncDecl)
	walk = func(d *ast.FuncDecl) {
		if d == nil || visited[d] || d.Body == nil {
			return
		}
		visited[d] = true
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := pass.TypesInfo.Selections[n]
				if ok && sel.Kind() == types.FieldVal && sameNamed(receiverNamed(sel), named) {
					used[n.Sel.Name] = true
				}
			case *ast.CallExpr:
				if callee, ok := pass.TypesInfo.Uses[usedIdent(n.Fun)].(*types.Func); ok {
					if callee.Pkg() == pass.Pkg {
						walk(decls[callee])
					} else {
						// A whole spec value handed to another package
						// (fmt.Sprintf("%+v", spec), json.Marshal(spec))
						// serializes all of it.
						for _, arg := range n.Args {
							if at := pass.TypesInfo.TypeOf(arg); at != nil && sameNamed(namedOf(at), named) {
								wholeUse = true
							}
						}
					}
				}
			}
			return true
		})
	}
	walk(root)
	return wholeUse
}

// receiverNamed unwraps the named struct type a field selection reads
// from, through pointers.
func receiverNamed(sel *types.Selection) *types.Named {
	return namedOf(sel.Recv())
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	if p, ok := t.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return n
		}
	}
	return nil
}

func sameNamed(a, b *types.Named) bool {
	return a != nil && b != nil && a.Obj() == b.Obj()
}

// packageFuncDecls indexes this pass's function declarations by their
// types.Func objects, methods included.
func packageFuncDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					out[obj] = fn
				}
			}
		}
	}
	return out
}

// resolveNamed resolves "T" in the pass package or "pkg.T" through its
// imports.
func resolveNamed(pass *analysis.Pass, name string) *types.Named {
	scope := pass.Pkg.Scope()
	if pkgName, typ, ok := strings.Cut(name, "."); ok {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				scope = imp.Scope()
				name = typ
				break
			}
		}
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil
	}
	if tn, ok := obj.(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			return n
		}
	}
	return nil
}

// fieldKeyIgnored looks for a //sldf:keyignore directive on the field's
// declaration line. The struct must be declared in the pass package —
// cross-package spec types cannot carry checked ignore markers, so their
// every exported field must be serialized.
func fieldKeyIgnored(pass *analysis.Pass, fd *fileDirectives, named *types.Named, fieldName string) (ignored, naked bool) {
	if named.Obj().Pkg() != pass.Pkg {
		return false, false
	}
	spec := structSpec(pass, named)
	if spec == nil {
		return false, false
	}
	for _, f := range spec.Fields.List {
		for _, id := range f.Names {
			if id.Name != fieldName {
				continue
			}
			file := enclosingFile(pass, f.Pos())
			if file == nil {
				return false, false
			}
			for _, d := range fd.at(file, f.Pos(), keyIgnore) {
				if d.arg != "" {
					return true, false
				}
				naked = true
			}
			return false, naked
		}
	}
	return false, false
}

// structSpec finds the *ast.StructType of a named type declared in this
// pass.
func structSpec(pass *analysis.Pass, named *types.Named) *ast.StructType {
	pos := named.Obj().Pos()
	for _, f := range pass.Files {
		if f.FileStart > pos || pos > f.FileEnd {
			continue
		}
		var found *ast.StructType
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Pos() != pos {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				found = st
			}
			return false
		})
		if found != nil {
			return found
		}
	}
	return nil
}
