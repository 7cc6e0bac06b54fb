package analysis

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/transform"
)

// compositeSource triggers several rules at once.
const compositeSource = `var _0x12ab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];
function _0x34cd(_0x56ef) { return _0x12ab[_0x56ef - 2]; }
var _0x78aa = atob("aGVsbG8gd29ybGQhIQ==");
var _0x78bb = unescape("%68%65%6c%6c%6f%20%77%6f%72%6c%64");
eval(_0x78aa);
if (74 === 74 + 13) { _0x34cd(9); }
_0x34cd(2);`

func TestDiagnosticJSONRoundTrip(t *testing.T) {
	diags := mustAnalyze(t, compositeSource)
	if len(diags) == 0 {
		t.Fatal("expected diagnostics on composite source")
	}
	data, err := json.Marshal(diags)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, diags)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	diags := mustAnalyze(t, compositeSource)
	for i := 1; i < len(diags); i++ {
		if diags[i].Span.Start.Offset < diags[i-1].Span.Start.Offset {
			t.Errorf("diagnostics out of order at %d: %d < %d",
				i, diags[i].Span.Start.Offset, diags[i-1].Span.Start.Offset)
		}
	}
}

// TestSingleTraversal registers rules that observe every node and verifies
// each sees every node exactly once per Run — the engine dispatches all
// rules from one walk instead of re-traversing per rule.
func TestSingleTraversal(t *testing.T) {
	res, err := parser.ParseNoTokens(compositeSource)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	countAll(res.Program, &nodes)

	counts := make([]int, 3)
	rules := make([]Rule, len(counts))
	for i := range rules {
		i := i
		rules[i] = &rule{
			info: RuleInfo{ID: "count", Severity: SeverityInfo},
			start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
				return func(ast.Node) { counts[i]++ }, nil
			},
		}
	}
	eng := NewEngine(rules...)
	eng.Run(&Context{Src: compositeSource, Result: res, Program: res.Program})
	for i, c := range counts {
		if c != nodes {
			t.Errorf("rule %d observed %d nodes, want %d", i, c, nodes)
		}
	}
}

func countAll(n ast.Node, count *int) {
	*count++
	for _, c := range ast.Children(n) {
		countAll(c, count)
	}
}

// TestKindDispatchTargeted verifies the kind-indexed dispatch delivers a rule
// exactly the node types it subscribed to — no more, no fewer — matching what
// the old type-name string dispatch did.
func TestKindDispatchTargeted(t *testing.T) {
	res, err := parser.ParseNoTokens(compositeSource)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	var countByType func(n ast.Node)
	countByType = func(n ast.Node) {
		want[n.NodeKind().String()]++
		for _, c := range ast.Children(n) {
			countByType(c)
		}
	}
	countByType(res.Program)

	got := map[string]int{}
	targeted := &rule{
		info: RuleInfo{ID: "targeted", Severity: SeverityInfo,
			Nodes: []ast.Kind{ast.KindIdentifier, ast.KindCallExpression, ast.KindIfStatement}},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			return func(n ast.Node) { got[n.NodeKind().String()]++ }, nil
		},
	}
	eng := NewEngine(targeted)
	eng.Run(&Context{Src: compositeSource, Result: res, Program: res.Program})

	for _, typ := range []string{"Identifier", "CallExpression", "IfStatement"} {
		if got[typ] != want[typ] {
			t.Errorf("rule saw %d %s nodes, want %d", got[typ], typ, want[typ])
		}
	}
	for typ := range got {
		switch typ {
		case "Identifier", "CallExpression", "IfStatement":
		default:
			t.Errorf("rule observed unsubscribed node type %s", typ)
		}
	}
}

// TestConcurrentRuns exercises the engine from several goroutines (the -race
// gate makes this meaningful).
func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := Analyze(compositeSource); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTransformedSamplesAttributed applies the real transformation
// implementations to generated code and checks the corresponding rule
// attributes the right technique with a non-zero span.
func TestTransformedSamplesAttributed(t *testing.T) {
	cases := []struct {
		tech transform.Technique
		rule string
	}{
		{transform.IdentifierObfuscation, "hex-identifiers"},
		{transform.GlobalArray, "string-array"},
		{transform.ControlFlowFlattening, "switch-dispatch"},
		{transform.SelfDefending, "self-defending"},
		{transform.DebugProtection, "debugger-protection"},
		{transform.DeadCodeInjection, "dead-branch"},
	}
	// base is rich enough for every transform to engage: string literals
	// for the global array, straight-line assignment runs for flattening,
	// and ordinary declarations for renaming and dead-code injection. The
	// generated corpus source is appended for realism.
	base := `function compute(list) {
  var total = 0;
  total = total + list.length;
  total = total * 2;
  total = total - 1;
  return total;
}
var data = ["one", "two", "three", "four", "five", "six", "seven", "eight"];
compute(data);
` + corpus.GenerateRegular(rand.New(rand.NewSource(7)))
	for _, tc := range cases {
		t.Run(tc.tech.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			out, err := transform.Transform(base, rng, tc.tech)
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			diags := mustAnalyze(t, out)
			d, ok := findRule(diags, tc.rule)
			if !ok {
				t.Fatalf("rule %s did not fire on %s output; got %v",
					tc.rule, tc.tech, ruleIDs(diags))
			}
			if d.Technique != tc.tech.String() {
				t.Errorf("technique = %q, want %q", d.Technique, tc.tech)
			}
			if d.Span.Start.Line < 1 || d.Span.End.Line < 1 {
				t.Errorf("zero span: %+v", d.Span)
			}
		})
	}
}

// TestWithGraphScopes checks the data-flow-assisted sink rule resolves
// identifier arguments through bindings.
func TestWithGraphScopes(t *testing.T) {
	res, err := parser.ParseNoTokens(compositeSource)
	if err != nil {
		t.Fatal(err)
	}
	g := flow.NewSession().Build(res.Program)
	diags := AnalyzeParsed(compositeSource, res, g)
	if _, ok := findRule(diags, "dynamic-code-sink"); !ok {
		t.Errorf("dynamic-code-sink did not resolve eval(_0x78aa) through its binding; got %v", ruleIDs(diags))
	}
}
