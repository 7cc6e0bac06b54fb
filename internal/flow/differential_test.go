// Differential test for the fused walk's edge counts: the pre-fusion CFG
// builder (two walks — cfgBuilder over statements, then a whole-tree pass
// appending ConditionalExpression edges) is preserved below verbatim as the
// reference for control edges, and the refspec scope analyzer's def→use
// pairs are the reference for data edges. The graph carries counts only,
// because counts are all the detector reads, so the counts are the
// contract: over the corpus plus every transformation technique, the fused
// walk must report exactly the reference builders' numbers.
package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/scope/refspec"
	"repro/internal/transform"
)

// Edge is a directed control edge of the reference builder. The fused walk
// only counts edges, so the type lives here, with its one producer.
type Edge struct {
	From ast.Node
	To   ast.Node
}

// refCounts returns the reference (control, data) edge counts of prog: the
// pre-fusion builder's control edges and the refspec analyzer's references
// to declared bindings.
func refCounts(prog *ast.Program) (control, data int) {
	for _, b := range refspec.Analyze(prog).Bindings {
		if b.Decl != nil {
			data += len(b.Refs)
		}
	}
	return len(refControlEdges(prog)), data
}

// refControlEdges is the pre-fusion control-edge builder, kept verbatim.
func refControlEdges(prog *ast.Program) []Edge {
	b := &refCfgBuilder{}
	b.stmtList(prog, prog.Body)
	ast.Inspect(prog, func(n ast.Node) bool {
		if cond, ok := n.(*ast.ConditionalExpression); ok {
			b.edges = append(b.edges,
				Edge{From: cond, To: cond.Consequent},
				Edge{From: cond, To: cond.Alternate})
		}
		return true
	})
	return b.edges
}

type refCfgBuilder struct {
	edges []Edge
}

func (b *refCfgBuilder) edge(from, to ast.Node) {
	if from == nil || to == nil {
		return
	}
	b.edges = append(b.edges, Edge{From: from, To: to})
}

func (b *refCfgBuilder) stmtList(parent ast.Node, stmts []ast.Node) {
	var prev ast.Node
	for _, s := range stmts {
		if prev == nil {
			b.edge(parent, s)
		} else {
			b.edge(prev, s)
		}
		b.stmt(s)
		if refTerminates(s) {
			prev = nil
		} else {
			prev = s
		}
	}
}

func refTerminates(s ast.Node) bool {
	switch v := s.(type) {
	case *ast.ReturnStatement, *ast.ThrowStatement, *ast.BreakStatement, *ast.ContinueStatement:
		return true
	case *ast.BlockStatement:
		if len(v.Body) == 0 {
			return false
		}
		return refTerminates(v.Body[len(v.Body)-1])
	default:
		return false
	}
}

func (b *refCfgBuilder) stmt(n ast.Node) {
	switch v := n.(type) {
	case *ast.BlockStatement:
		b.stmtList(v, v.Body)
	case *ast.IfStatement:
		b.funcBodies(v.Test)
		b.edge(v, v.Consequent)
		b.stmt(v.Consequent)
		if v.Alternate != nil {
			b.edge(v, v.Alternate)
			b.stmt(v.Alternate)
		}
	case *ast.WhileStatement:
		b.funcBodies(v.Test)
		b.edge(v, v.Body)
		b.stmt(v.Body)
		b.edge(v.Body, v) // back edge
	case *ast.DoWhileStatement:
		b.edge(v, v.Body)
		b.stmt(v.Body)
		b.edge(v.Body, v)
	case *ast.ForStatement:
		b.funcBodies(v.Init)
		b.funcBodies(v.Test)
		b.funcBodies(v.Update)
		b.edge(v, v.Body)
		b.stmt(v.Body)
		b.edge(v.Body, v)
	case *ast.ForInStatement:
		b.edge(v, v.Body)
		b.stmt(v.Body)
		b.edge(v.Body, v)
	case *ast.ForOfStatement:
		b.edge(v, v.Body)
		b.stmt(v.Body)
		b.edge(v.Body, v)
	case *ast.SwitchStatement:
		b.funcBodies(v.Discriminant)
		for _, c := range v.Cases {
			b.edge(v, c)
			b.stmtList(c, c.Consequent)
		}
	case *ast.TryStatement:
		b.edge(v, v.Block)
		b.stmt(v.Block)
		if v.Handler != nil {
			b.edge(v, v.Handler)
			if v.Handler.Body != nil {
				b.edge(v.Handler, v.Handler.Body)
				b.stmt(v.Handler.Body)
			}
		}
		if v.Finalizer != nil {
			b.edge(v, v.Finalizer)
			b.stmt(v.Finalizer)
		}
	case *ast.LabeledStatement:
		b.edge(v, v.Body)
		b.stmt(v.Body)
	case *ast.WithStatement:
		b.edge(v, v.Body)
		b.stmt(v.Body)
	case *ast.FunctionDeclaration:
		if v.Body != nil {
			b.edge(v, v.Body)
			b.stmt(v.Body)
		}
	case *ast.ExpressionStatement:
		b.funcBodies(v.Expression)
	case *ast.VariableDeclaration:
		for _, d := range v.Declarations {
			if d.Init != nil {
				b.funcBodies(d.Init)
			}
		}
	case *ast.ReturnStatement:
		if v.Argument != nil {
			b.funcBodies(v.Argument)
		}
	case *ast.ExportNamedDeclaration:
		if v.Declaration != nil {
			b.stmt(v.Declaration)
		}
	case *ast.ExportDefaultDeclaration:
		b.funcBodies(v.Declaration)
	}
}

func (b *refCfgBuilder) funcBodies(expr ast.Node) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FunctionExpression:
			if v.Body != nil {
				b.edge(v, v.Body)
				b.stmtList(v.Body, v.Body.Body)
			}
			return false
		case *ast.ArrowFunctionExpression:
			if blk, ok := v.Body.(*ast.BlockStatement); ok {
				b.edge(v, blk)
				b.stmtList(blk, blk.Body)
			}
			return false
		case *ast.FunctionDeclaration:
			if v.Body != nil {
				b.edge(v, v.Body)
				b.stmtList(v.Body, v.Body.Body)
			}
			return false
		}
		return true
	})
}

// TestFusedControlEdgesMatchReference drives the corpus and all ten
// transformation techniques through the reference builders and the fused
// walk and requires identical control and data edge counts.
func TestFusedControlEdgesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	files := corpus.RegularSet(3, rng)
	base := files[0]
	for _, tech := range transform.Techniques {
		out, err := corpus.Apply(base, rng, tech)
		if err != nil {
			t.Fatalf("apply %s: %v", tech, err)
		}
		files = append(files, out)
	}
	s := NewSession()
	for i, f := range files {
		name := fmt.Sprintf("%s#%d", f.Name, i)
		res, err := parser.ParseNoTokens(f.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		control, data := refCounts(res.Program)
		g := s.Build(res.Program)
		if g.ControlEdges != control {
			t.Fatalf("%s: %d control edges, reference %d", name, g.ControlEdges, control)
		}
		if g.DataEdges != data {
			t.Fatalf("%s: %d data edges, reference %d", name, g.DataEdges, data)
		}
	}
}
