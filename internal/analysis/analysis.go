// Package analysis implements a rule-based static indicator engine: a
// registry of lint-style rules runs over the parsed AST, the scope
// information, and the flow graph, and emits structured diagnostics that
// attribute concrete source spans to the paper's monitored transformation
// techniques. Where the hashed 4-gram vectors of internal/features are
// opaque, these diagnostics are the explainable counterpart: each one names
// a rule, a technique, a source range, and a machine-readable evidence map.
//
// The engine performs exactly ONE ast.Inspect pass over the AST regardless
// of how many rules are registered: every rule contributes a visit callback
// that is dispatched by node kind (or for every node), so adding rules never
// adds traversals. An Engine is immutable after construction and therefore safe
// for concurrent Run calls from corpus workers.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"unicode/utf8"

	"repro/internal/flow"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// Severity grades how strongly a diagnostic implies its technique.
type Severity int

const (
	// SeverityInfo marks weak, contextual signals.
	SeverityInfo Severity = iota + 1
	// SeverityWarning marks statistical signals that could, rarely, occur
	// in benign code.
	SeverityWarning
	// SeverityStrong marks structural fingerprints of a specific
	// transformation tool.
	SeverityStrong
)

var severityNames = map[Severity]string{
	SeverityInfo:    "info",
	SeverityWarning: "warning",
	SeverityStrong:  "strong",
}

func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	n, ok := severityNames[s]
	if !ok {
		return nil, fmt.Errorf("invalid severity %d", int(s))
	}
	return json.Marshal(n)
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var n string
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	for sev, name := range severityNames {
		if name == n {
			*s = sev
			return nil
		}
	}
	return fmt.Errorf("unknown severity %q", n)
}

// Diagnostic is one attributable finding. All fields round-trip through
// encoding/json.
type Diagnostic struct {
	// Rule is the ID of the rule that fired.
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Technique is the level-2 label the finding supports (one of the
	// paper's ten technique names), or "" for technique-neutral findings.
	Technique string `json:"technique,omitempty"`
	// Span is the source range of the triggering construct, resolved to
	// lines and columns when the finding is reported.
	Span ast.Span `json:"span"`
	// Message is a human-readable, one-line explanation.
	Message string `json:"message"`
	// Snippet is the (truncated) source text under Span.
	Snippet string `json:"snippet,omitempty"`
	// Evidence carries the raw numbers behind the verdict.
	Evidence map[string]float64 `json:"evidence,omitempty"`
}

// Context is the per-file input shared by all rules during one Run.
type Context struct {
	// Src is the raw source text.
	Src string
	// Result is the parse result (AST, token count, comments).
	Result *parser.Result
	// Program is the AST root (always Result.Program when Result is set).
	Program *ast.Program
	// Graph is the flow graph; Graph.Scopes carries resolved bindings.
	Graph *flow.Graph

	statsOnce sync.Once
	stats     lexer.TextStats
	// lines resolves reported ranges; it is built on the first report, so
	// a file with no finding never builds it.
	lines *ast.Lines
}

// Stats returns the whole-source text statistics, computed once no matter
// how many source-level rules consult them. With a parse result they are
// the Result's, so the hand-picked features reuse the same pass; Src must
// then be the source Result was parsed from.
func (c *Context) Stats() lexer.TextStats {
	if c.Result != nil {
		return c.Result.TextStats()
	}
	c.statsOnce.Do(func() { c.stats = lexer.ComputeTextStats(c.Src) })
	return c.stats
}

// RuleInfo describes a rule to the registry and to feature consumers.
type RuleInfo struct {
	// ID is the stable kebab-case rule identifier.
	ID string
	// Technique is the level-2 label the rule attributes (may be "").
	Technique string
	// Severity is the severity of the diagnostics the rule emits.
	Severity Severity
	// Doc is a one-line description of what the rule detects.
	Doc string
	// Nodes lists the node kinds the rule wants to observe. An empty list
	// subscribes the rule to every node; a nil visit callback (source-level
	// rules) subscribes it to none.
	Nodes []ast.Kind
}

// Visit observes one AST node during the shared traversal.
type Visit func(n ast.Node)

// FinishFunc runs after the traversal so a rule can emit aggregate findings.
type FinishFunc func()

// Rule is one pluggable static indicator.
type Rule interface {
	// Info returns the static description of the rule.
	Info() RuleInfo
	// Start begins one file's analysis and returns the rule's visit and
	// finish callbacks (either may be nil). All mutable state must live in
	// the closure so concurrent Runs never share it.
	Start(ctx *Context, rep *Reporter) (Visit, FinishFunc)
}

// rule is the concrete Rule used by the built-in registry.
type rule struct {
	info  RuleInfo
	start func(ctx *Context, rep *Reporter) (Visit, FinishFunc)
}

func (r *rule) Info() RuleInfo { return r.info }

func (r *rule) Start(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
	return r.start(ctx, rep)
}

// span resolves a node's byte range to lines and columns.
func (c *Context) span(r ast.Range) ast.Span {
	if c.lines == nil {
		c.lines = ast.NewLines(c.Src)
	}
	return c.lines.Span(r)
}

// Reporter collects a rule's diagnostics during one Run.
type Reporter struct {
	info  RuleInfo
	ctx   *Context
	diags *[]Diagnostic
}

// maxSnippet bounds the snippet text stored on each diagnostic.
const maxSnippet = 120

// Report emits a diagnostic for the given byte range.
func (r *Reporter) Report(rng ast.Range, msg string, evidence map[string]float64) {
	*r.diags = append(*r.diags, Diagnostic{
		Rule:      r.info.ID,
		Severity:  r.info.Severity,
		Technique: r.info.Technique,
		Span:      r.ctx.span(rng),
		Message:   msg,
		Snippet:   snippet(r.ctx.Src, rng),
		Evidence:  evidence,
	})
}

// Reportf is Report with a formatted message.
func (r *Reporter) Reportf(rng ast.Range, evidence map[string]float64, format string, args ...interface{}) {
	r.Report(rng, fmt.Sprintf(format, args...), evidence)
}

// snippet extracts the capped source text under rng.
func snippet(src string, rng ast.Range) string {
	lo, hi := int(rng.Start), int(rng.End)
	if lo < 0 || hi > len(src) || lo >= hi {
		return ""
	}
	if hi-lo > maxSnippet {
		// Cut on a rune boundary: a split rune would become U+FFFD in any
		// JSON round trip, so a stored diagnostic would differ from the
		// scan that produced it.
		cut := lo + maxSnippet
		for cut > lo && !utf8.RuneStart(src[cut]) {
			cut--
		}
		return src[lo:cut] + "…"
	}
	return src[lo:hi]
}

// Engine runs a fixed rule registry over files. It is immutable after
// construction: concurrent Run calls are safe.
type Engine struct {
	rules []Rule
}

// NewEngine builds an engine over the given rules; with no arguments it uses
// DefaultRules.
func NewEngine(rules ...Rule) *Engine {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &Engine{rules: rules}
}

// Rules returns the registry in registration order.
func (e *Engine) Rules() []Rule { return e.rules }

// Run executes every rule over ctx in one shared AST traversal and returns
// the diagnostics sorted by source position.
func (e *Engine) Run(ctx *Context) []Diagnostic {
	defer obs.Time("analysis.run")()
	var diags []Diagnostic
	var byKind [ast.KindCount][]Visit
	var every []Visit
	finishes := make([]FinishFunc, 0, len(e.rules))
	for _, r := range e.rules {
		info := r.Info()
		rep := &Reporter{info: info, ctx: ctx, diags: &diags}
		visit, finish := r.Start(ctx, rep)
		if visit != nil {
			if len(info.Nodes) == 0 {
				every = append(every, visit)
			}
			for _, k := range info.Nodes {
				byKind[k] = append(byKind[k], visit)
			}
		}
		if finish != nil {
			finishes = append(finishes, finish)
		}
	}
	if ctx.Program != nil {
		ast.Inspect(ctx.Program, func(n ast.Node) bool {
			for _, v := range every {
				v(n)
			}
			for _, v := range byKind[n.NodeKind()] {
				v(n)
			}
			return true
		})
	}
	for _, f := range finishes {
		f()
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Span.Start.Offset != diags[j].Span.Start.Offset {
			return diags[i].Span.Start.Offset < diags[j].Span.Start.Offset
		}
		return diags[i].Rule < diags[j].Rule
	})
	obs.Add("analysis.runs", 1)
	obs.Add("analysis.diagnostics", int64(len(diags)))
	return diags
}

// defaultEngine backs the package-level convenience entry points. Engines
// are immutable, so sharing one across goroutines is safe.
var defaultEngine = NewEngine()

// Default returns the shared engine over DefaultRules.
func Default() *Engine { return defaultEngine }

// Analyze parses src, builds its flow graph, and runs the default rules.
func Analyze(src string) ([]Diagnostic, error) {
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	g := flow.NewSession().Build(res.Program)
	return AnalyzeParsed(src, res, g), nil
}

// AnalyzeParsed runs the default rules over an already-parsed file and its
// flow graph g, which must not be nil.
func AnalyzeParsed(src string, res *parser.Result, g *flow.Graph) []Diagnostic {
	return defaultEngine.Run(&Context{Src: src, Result: res, Program: res.Program, Graph: g})
}
