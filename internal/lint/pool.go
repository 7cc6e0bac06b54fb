package lint

import (
	"go/ast"
	"go/types"
)

// PoolDiscipline enforces the sync.Pool contract the pooled hot-path
// extractors rely on: every Get must be paired with a Put on the same pool
// reachable on every return path of the function, and the pooled value must
// not outlive the function (returned, stored outside a local, sent on a
// channel, or captured by a non-deferred closure).
//
// The reachability check is lexical, not a full CFG: a defer Put satisfies
// every path; otherwise each return statement after the Get must have a Put
// between the Get and itself. A Put inside a conditional can therefore
// satisfy a following return — the analyzer trades that imprecision for
// zero false positives on the deliberate no-defer pattern the hot paths use
// (a deferred closure would itself allocate; see features.collectStats).
var PoolDiscipline = &Analyzer{
	Name: "pool-discipline",
	Doc:  "sync.Pool.Get must have a Put reachable on all return paths, and the pooled value must not escape",
	Run:  runPool,
}

func runPool(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd)
		}
	}
}

// poolCall is one Get or Put call site on a pool expression.
type poolCall struct {
	call     *ast.CallExpr
	poolExpr string // canonical receiver text, e.g. "statsCollectorPool"
	deferred bool
	inFunc   ast.Node // nearest enclosing FuncDecl/FuncLit
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	parents := buildParents(fd)

	var gets, puts []poolCall
	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			if parents.enclosingFunc(v) == ast.Node(fd) {
				returns = append(returns, v)
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
				return true
			}
			if !isSyncPool(info.TypeOf(sel.X)) {
				return true
			}
			pc := poolCall{
				call:     v,
				poolExpr: types.ExprString(sel.X),
				deferred: isDeferred(parents, v),
				inFunc:   hostFunc(parents, v, fd),
			}
			if sel.Sel.Name == "Get" {
				gets = append(gets, pc)
			} else {
				puts = append(puts, pc)
			}
		}
		return true
	})

	for _, get := range gets {
		if get.inFunc != ast.Node(fd) {
			continue // nested function literals get their own FuncDecl-level pass via closures below
		}
		var samePool []poolCall
		for _, put := range puts {
			if put.poolExpr == get.poolExpr && put.inFunc == get.inFunc {
				samePool = append(samePool, put)
			}
		}
		if len(samePool) == 0 {
			pass.Reportf(get.call.Pos(), "%s.Get has no matching %s.Put in this function", get.poolExpr, get.poolExpr)
		} else {
			deferOK := false
			for _, put := range samePool {
				if put.deferred {
					deferOK = true
				}
			}
			if !deferOK {
				for _, ret := range returns {
					if ret.Pos() < get.call.Pos() {
						continue
					}
					covered := false
					for _, put := range samePool {
						if put.call.Pos() > get.call.Pos() && put.call.End() < ret.Pos() {
							covered = true
							break
						}
					}
					if !covered {
						pass.Reportf(ret.Pos(), "return without %s.Put of the value obtained at line %d", get.poolExpr, pass.Pkg.Fset.Position(get.call.Pos()).Line)
					}
				}
			}
		}
		checkPoolEscape(pass, fd, parents, get)
	}
}

// checkPoolEscape flags uses of the Get-bound variable that let the pooled
// value outlive the function.
func checkPoolEscape(pass *Pass, fd *ast.FuncDecl, parents parentMap, get poolCall) {
	info := pass.Pkg.Info

	// Find the variable the Get result is bound to: climb through a type
	// assertion to an assignment with a single identifier target.
	n := ast.Node(get.call)
	for {
		p := parents[n]
		if _, ok := p.(*ast.TypeAssertExpr); ok {
			n = p
			continue
		}
		break
	}
	assign, ok := parents[n].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || info.Uses[use] != obj {
			return true
		}
		switch p := parents[use].(type) {
		case *ast.ReturnStmt:
			pass.Reportf(use.Pos(), "pooled value %s escapes: returned from the function that got it", id.Name)
		case *ast.SendStmt:
			if p.Value == ast.Node(use) {
				pass.Reportf(use.Pos(), "pooled value %s escapes: sent on a channel", id.Name)
			}
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != ast.Node(use) || i >= len(p.Lhs) {
					continue
				}
				switch lhs := p.Lhs[i].(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					pass.Reportf(use.Pos(), "pooled value %s escapes: stored outside the function's locals", id.Name)
				case *ast.Ident:
					if o := info.Uses[lhs]; o != nil && o.Parent() == pass.Pkg.Types.Scope() {
						pass.Reportf(use.Pos(), "pooled value %s escapes: stored in package-level %s", id.Name, lhs.Name)
					}
				}
			}
		}
		// Captured by a closure that is not a deferred cleanup.
		if host := hostFunc(parents, use, fd); host != ast.Node(fd) {
			if lit, ok := host.(*ast.FuncLit); ok && !isDeferred(parents, lit) {
				pass.Reportf(use.Pos(), "pooled value %s escapes: captured by a non-deferred closure", id.Name)
			}
		}
		return true
	})
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isDeferred reports whether n is (part of) a defer statement: the deferred
// call itself or inside a deferred function literal.
func isDeferred(parents parentMap, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		if _, ok := p.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// hostFunc returns the innermost function (FuncLit or the given FuncDecl)
// that contains n.
func hostFunc(parents parentMap, n ast.Node, fd *ast.FuncDecl) ast.Node {
	if f := parents.enclosingFunc(n); f != nil {
		return f
	}
	return fd
}
