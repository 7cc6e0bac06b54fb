package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineHygiene enforces the worker invariants behind the batch
// scanner's cancellation machinery (ScanStreamContext returns only once
// every worker has):
//
//  1. every go statement must be tied to a tracked drain — the spawned body
//     signals completion through a sync.WaitGroup Done, a channel close, or
//     a channel send. A goroutine spawned on a named function cannot be
//     proven drained and is flagged.
//  2. a goroutine signalling through wg.Done must have a matching wg.Add
//     before the go statement in the spawning function.
//  3. in a context-aware function (one with a context.Context parameter),
//     every channel send must sit in a select with a receive case, so a
//     cancelled consumer cannot strand the sender forever. This is the
//     producer-side dual of "worker loops must poll ctx.Done()".
//
// Functions without a context parameter may use bare sends: they have no
// cancellation contract.
var GoroutineHygiene = &Analyzer{
	Name: "goroutine-hygiene",
	Doc:  "go statements must be tied to a tracked drain, and context-aware sends must be cancellable",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroutines(pass, fd)
		}
	}
}

func checkGoroutines(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	parents := buildParents(fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			pass.Reportf(gs.Pos(), "goroutine spawned on a named function is not tied to a tracked drain; wrap it in a closure that signals a WaitGroup or channel")
			return true
		}
		drain := drainSignal(info, lit.Body)
		switch drain.kind {
		case drainNone:
			pass.Reportf(gs.Pos(), "goroutine has no tracked drain: signal completion with a WaitGroup Done, a channel close, or a channel send")
		case drainWaitGroup:
			if !addBeforeGo(info, fd, gs, drain.wgExpr) {
				pass.Reportf(gs.Pos(), "goroutine calls %s.Done but no %s.Add precedes the go statement", drain.wgExpr, drain.wgExpr)
			}
		}
		return true
	})

	if !hasContextParam(info, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if !sendIsCancellable(parents, send) {
			pass.Reportf(send.Pos(), "channel send in a context-aware function must sit in a select with a cancellation receive (<-ctx.Done())")
		}
		return true
	})
}

type drainKind int

const (
	drainNone drainKind = iota
	drainWaitGroup
	drainChannel
)

type drain struct {
	kind   drainKind
	wgExpr string
}

// drainSignal classifies how the goroutine body signals completion.
func drainSignal(info *types.Info, body *ast.BlockStmt) drain {
	result := drain{kind: drainNone}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			if result.kind == drainNone {
				result = drain{kind: drainChannel}
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					result = drain{kind: drainChannel}
					return true
				}
			}
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			if isWaitGroup(info.TypeOf(sel.X)) {
				result = drain{kind: drainWaitGroup, wgExpr: types.ExprString(sel.X)}
			}
		}
		return true
	})
	return result
}

// addBeforeGo reports whether wgExpr.Add(...) is called before the go
// statement in the spawning function.
func addBeforeGo(info *types.Info, fd *ast.FuncDecl, gs *ast.GoStmt, wgExpr string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= gs.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" || types.ExprString(sel.X) != wgExpr {
			return true
		}
		if isWaitGroup(info.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

func isWaitGroup(t types.Type) bool {
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
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// hasContextParam reports whether fd takes a context.Context parameter.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	obj := info.Defs[fd.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		named, ok := sig.Params().At(i).Type().(*types.Named)
		if !ok {
			continue
		}
		o := named.Obj()
		if o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}

// sendIsCancellable reports whether the send is a select case in a select
// that also has a receive case (the cancellation escape hatch).
func sendIsCancellable(parents parentMap, send *ast.SendStmt) bool {
	comm, ok := parents[send].(*ast.CommClause)
	if !ok || comm.Comm != ast.Node(send) {
		return false
	}
	// A CommClause's syntactic parent is the select's body block.
	block, ok := parents[comm].(*ast.BlockStmt)
	if !ok {
		return false
	}
	sel, ok := parents[block].(*ast.SelectStmt)
	if !ok {
		return false
	}
	for _, stmt := range sel.Body.List {
		cc, ok := stmt.(*ast.CommClause)
		if !ok || cc == comm || cc.Comm == nil {
			continue
		}
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if _, ok := c.X.(*ast.UnaryExpr); ok {
				return true
			}
		case *ast.AssignStmt:
			return true
		}
	}
	return false
}
