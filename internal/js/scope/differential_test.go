// Differential test: the fused slice-backed analyzer must reproduce the
// refspec (map-based) analyzer exactly — binding list, reference lists,
// resolution table, unresolved set, and scope tree — over generated corpus
// files plus one output per monitored transformation technique. Both
// analyzers run over the same parsed tree, so every comparison is by node
// pointer.
package scope_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/scope"
	"repro/internal/js/scope/refspec"
	"repro/internal/transform"
)

func diffFixtures(t *testing.T) []corpus.File {
	t.Helper()
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
	return files
}

// identifiers collects every Identifier node in pre-order.
func identifiers(prog *ast.Program) []*ast.Identifier {
	var out []*ast.Identifier
	var visit func(ast.Node)
	visit = func(n ast.Node) {
		if id, ok := n.(*ast.Identifier); ok {
			out = append(out, id)
		}
		ast.EachChild(n, visit)
	}
	visit(prog)
	return out
}

func compareScopes(t *testing.T, name string, ref *refspec.Scope, got *scope.Scope) {
	t.Helper()
	if ref.Node != got.Node {
		t.Fatalf("%s: scope node %v, refspec %v", name, got.Node, ref.Node)
	}
	if ref.IsFunction != got.IsFunction {
		t.Fatalf("%s: scope %v IsFunction = %v, refspec %v", name, got.Node, got.IsFunction, ref.IsFunction)
	}
	bindings := got.Bindings()
	if len(bindings) != len(ref.Bindings) {
		t.Fatalf("%s: scope %v has %d bindings, refspec %d", name, got.Node, len(bindings), len(ref.Bindings))
	}
	for _, b := range bindings {
		rb, ok := ref.Bindings[b.Name]
		if !ok {
			t.Fatalf("%s: scope %v binding %q missing from refspec", name, got.Node, b.Name)
		}
		compareBinding(t, name, rb, b)
	}
	// Per-name lookup must agree too (exercises the promoted-map path on
	// binding-heavy scopes).
	for bName, rb := range ref.Bindings {
		b := got.Binding(bName)
		if b == nil {
			t.Fatalf("%s: scope %v Binding(%q) = nil, refspec has %v", name, got.Node, bName, rb.Decl)
		}
	}
	if len(got.Children) != len(ref.Children) {
		t.Fatalf("%s: scope %v has %d children, refspec %d", name, got.Node, len(got.Children), len(ref.Children))
	}
	for i := range got.Children {
		compareScopes(t, name, ref.Children[i], got.Children[i])
	}
}

func compareBinding(t *testing.T, name string, ref *refspec.Binding, got *scope.Binding) {
	t.Helper()
	if got.Name != ref.Name || int(got.Kind) != int(ref.Kind) ||
		got.Decl != ref.Decl || got.Init != ref.Init {
		t.Fatalf("%s: binding %q = {kind %d decl %p init %p}, refspec {kind %d decl %p init %p}",
			name, got.Name, got.Kind, got.Decl, got.Init, ref.Kind, ref.Decl, ref.Init)
	}
	if got.Scope.Node != ref.Scope.Node {
		t.Fatalf("%s: binding %q owned by scope %v, refspec %v", name, got.Name, got.Scope.Node, ref.Scope.Node)
	}
	if len(got.Refs) != len(ref.Refs) {
		t.Fatalf("%s: binding %q has %d refs, refspec %d", name, got.Name, len(got.Refs), len(ref.Refs))
	}
	for i := range got.Refs {
		if got.Refs[i] != ref.Refs[i] {
			t.Fatalf("%s: binding %q ref %d = %p (%v), refspec %p (%v)", name, got.Name, i,
				got.Refs[i], got.Refs[i].Range(), ref.Refs[i], ref.Refs[i].Range())
		}
	}
}

// compareAnalyses checks got, the fused analysis of prog, against the
// refspec analysis of the same tree.
func compareAnalyses(t *testing.T, name string, prog *ast.Program, got *scope.Info) {
	t.Helper()
	ref := refspec.Analyze(prog)
	if len(got.Bindings) != len(ref.Bindings) {
		t.Fatalf("%s: %d bindings, refspec %d", name, len(got.Bindings), len(ref.Bindings))
	}
	for i := range got.Bindings {
		compareBinding(t, name, ref.Bindings[i], got.Bindings[i])
	}
	if len(got.Unresolved) != len(ref.Unresolved) {
		t.Fatalf("%s: %d unresolved, refspec %d", name, len(got.Unresolved), len(ref.Unresolved))
	}
	for i := range got.Unresolved {
		if got.Unresolved[i] != ref.Unresolved[i] {
			t.Fatalf("%s: unresolved %d = %p, refspec %p", name, i, got.Unresolved[i], ref.Unresolved[i])
		}
	}
	// The resolution table must agree for every identifier in the tree, not
	// just the ones one side happened to record.
	for _, id := range identifiers(prog) {
		rb, gb := ref.BindingOf(id), got.BindingOf(id)
		if (rb == nil) != (gb == nil) {
			t.Fatalf("%s: BindingOf(%q@%v) = %v, refspec %v", name, id.Name, id.Range(), gb, rb)
		}
		if rb != nil && (gb.Decl != rb.Decl || gb.Name != rb.Name) {
			t.Fatalf("%s: BindingOf(%q@%v) resolves to %q@%p, refspec %q@%p",
				name, id.Name, id.Range(), gb.Name, gb.Decl, rb.Name, rb.Decl)
		}
	}
	compareScopes(t, name, ref.Global, got.Global)
}

// TestFusedAnalyzerMatchesRefspec is the rewrite's correctness anchor: the
// corpus plus all ten transformation techniques through both analyzers.
func TestFusedAnalyzerMatchesRefspec(t *testing.T) {
	for i, f := range diffFixtures(t) {
		res, err := parser.ParseNoTokens(f.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", f.Name, err)
		}
		compareAnalyses(t, fmt.Sprintf("%s#%d", f.Name, i), res.Program, scope.Analyze(res.Program))
	}
}

// TestFusedAnalyzerMatchesRefspecSessioned runs the same differential through
// one reused Session (the scan-worker shape), once through Analyze and once
// through AnalyzeFlow, the flow layer's entry point — storage recycling
// across files must never leak one file's state into the next.
func TestFusedAnalyzerMatchesRefspecSessioned(t *testing.T) {
	for _, entry := range []struct {
		name    string
		analyze func(*scope.Session, *ast.Program) *scope.Info
	}{
		{"Analyze", (*scope.Session).Analyze},
		{"AnalyzeFlow", func(s *scope.Session, prog *ast.Program) *scope.Info {
			info, _ := s.AnalyzeFlow(prog)
			return info
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			s := scope.NewSession()
			for i, f := range diffFixtures(t) {
				res, err := parser.ParseNoTokens(f.Source)
				if err != nil {
					t.Fatalf("%s: parse: %v", f.Name, err)
				}
				compareAnalyses(t, fmt.Sprintf("%s#%d", f.Name, i), res.Program, entry.analyze(s, res.Program))
			}
		})
	}
}
