package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/walker"
	"repro/internal/transform"
)

// Invariants of the enhanced graph, checked over generated corpus programs
// (regular and transformed): both counts equal the reference builders',
// every counted data edge joins two distinct Identifier nodes of the
// graph's own Program with no pair counted twice, and building is
// idempotent — the graph is derived from the AST without mutating it.

// programNodes collects the node set of a program.
func programNodes(prog *ast.Program) map[ast.Node]bool {
	nodes := make(map[ast.Node]bool)
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		nodes[n] = true
		return true
	})
	return nodes
}

// checkGraphInvariants asserts the invariants of g against the program it
// claims to enhance.
func checkGraphInvariants(t *testing.T, g *Graph, prog *ast.Program, label string) {
	t.Helper()
	control, data := refCounts(prog)
	if g.ControlEdges != control || g.DataEdges != data {
		t.Fatalf("%s: counts (%d control, %d data), reference (%d, %d)",
			label, g.ControlEdges, g.DataEdges, control, data)
	}
	nodes := programNodes(prog)
	seen := make(map[[2]*ast.Identifier]bool, g.DataEdges)
	for _, b := range g.Scopes.Bindings {
		if b.Decl == nil {
			continue
		}
		if !nodes[b.Decl] {
			t.Fatalf("%s: binding %q declared outside the program's node set", label, b.Name)
		}
		for _, ref := range b.Refs {
			// Data flow connects Identifier nodes only (paper's adjustment).
			if !nodes[ref] {
				t.Fatalf("%s: reference to %q leaves the program's node set", label, b.Name)
			}
			if ref == b.Decl {
				t.Fatalf("%s: data edge of %q is a self loop", label, b.Name)
			}
			key := [2]*ast.Identifier{b.Decl, ref}
			if seen[key] {
				t.Fatalf("%s: duplicate data edge of %q", label, b.Name)
			}
			seen[key] = true
		}
	}
	if len(seen) != g.DataEdges {
		t.Fatalf("%s: %d data edges counted, %d def→use pairs in Scopes", label, g.DataEdges, len(seen))
	}
}

// checkIdempotent rebuilds prog with a fresh session and requires the same
// counts, so the first build did not mutate the program.
func checkIdempotent(t *testing.T, g *Graph, prog *ast.Program) {
	t.Helper()
	g2 := NewSession().Build(prog)
	if g2.ControlEdges != g.ControlEdges || g2.DataEdges != g.DataEdges {
		t.Fatalf("second build changed counts: (%d, %d) vs (%d, %d)",
			g.ControlEdges, g.DataEdges, g2.ControlEdges, g2.DataEdges)
	}
}

func TestGraphInvariantsOverCorpus(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := corpus.GenerateRegular(rand.New(rand.NewSource(seed)))
			prog, err := parser.ParseProgram(src)
			if err != nil {
				t.Fatalf("corpus generator emitted unparseable JS: %v", err)
			}
			g := NewSession().Build(prog)
			checkGraphInvariants(t, g, prog, "regular")
			if g.ControlEdges == 0 {
				t.Fatal("generated program produced no control edges")
			}
			checkIdempotent(t, g, prog)
		})
	}
}

// TestGraphInvariantsOverTransforms runs the same invariants over each
// obfuscation/minification technique's output — the adversarial shapes the
// detector actually scans.
func TestGraphInvariantsOverTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := corpus.RegularSet(1, rng)[0]
	for _, tech := range transform.Techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			tf, err := corpus.Apply(base, rng, tech)
			if err != nil {
				t.Fatalf("transform failed: %v", err)
			}
			prog, err := parser.ParseProgram(tf.Source)
			if err != nil {
				t.Fatalf("transformed source unparseable: %v", err)
			}
			g := NewSession().Build(prog)
			checkGraphInvariants(t, g, prog, tech.String())
			checkIdempotent(t, g, prog)
		})
	}
}

// TestTerminatorsCutFallthrough pins the control-flow treatment of
// terminating statements: no sequential edge leaves a return/throw/break/
// continue (or a block ending in one), and function bodies nested in
// expressions are still wired.
func TestTerminatorsCutFallthrough(t *testing.T) {
	src := `
function f(c) {
  if (c) { return 1; }
  throw new Error("x");
  unreachable();
}
for (;;) { if (x) break; else continue; after(); }
var g = (function named() { return 0; })();
var h = (() => { return 1; })();
var i = (() => shortArrow)();
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g := NewSession().Build(prog)
	checkGraphInvariants(t, g, prog, "terminators")
	// Top level: Program→f→for→g→h→i (5). f: f→body, body→if,
	// if→block→return, if→throw, and body→unreachable() — the throw cuts
	// the chain, so the statement after it hangs off the body, not the
	// throw (6). for: for→body, the back edge, body→if→after(),
	// if→break, if→continue (6). The IIFE and the block arrow each add
	// fn→body→return (2 + 2); the expression arrow adds none. Data: the
	// one use of c.
	if g.ControlEdges != 21 {
		t.Errorf("control edges = %d, want 21", g.ControlEdges)
	}
	if g.DataEdges != 1 {
		t.Errorf("data edges = %d, want 1", g.DataEdges)
	}
}
