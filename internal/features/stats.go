package features

import (
	"math"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/js/ast"
	"repro/internal/js/scope"
)

// stats aggregates the raw AST counts the hand-picked features are computed
// from.
type stats struct {
	nodes   int
	depth   int
	breadth int

	identCount    int
	identChars    int
	uniqueIdents  int
	hexIdents     int
	shortIdents   int
	identCharHist [128]int

	literalCount   int
	stringCount    int
	stringChars    int
	numberCount    int
	regexCount     int
	stringCharHist [128]int
	encodedStrings int
	base64Strings  int

	callCount       int
	memberCount     int
	bracketMember   int
	ternaryCount    int
	binaryCount     int
	strConcat       int
	arrayCount      int
	arrayElems      int
	switchCount     int
	caseCount       int
	whileTrueSwitch int
	pipeSplit       int
	debuggerCount   int
	debuggerStrings int
	emptyCatch      int
	funcCount       int
	functionCtor    int
	stringOps       int
	numericArgCalls int
	maxExprNesting  int
	largestStrArray int

	// bindings counts the flow graph's bindings; arrayFetched counts those
	// initialized with an array or object literal and referenced as the
	// object of a computed member access.
	bindings     int
	arrayFetched int

	builtins map[string]bool
}

var stringOpNames = map[string]bool{
	"split": true, "join": true, "reverse": true, "concat": true,
	"replace": true, "charCodeAt": true, "charAt": true, "substring": true,
	"substr": true, "slice": true, "indexOf": true, "fromCharCode": true,
	"toString": true, "trim": true, "toLowerCase": true, "toUpperCase": true,
}

// isBuiltin reports the global names stats.builtins records. It runs on
// every identifier, where a string switch is cheaper than hashing the name
// into a map.
func isBuiltin(name string) bool {
	switch name {
	case "eval", "atob", "btoa", "escape", "unescape",
		"decodeURIComponent", "decodeURI", "encodeURIComponent",
		"setInterval", "setTimeout", "Function",
		"parseInt", "parseFloat":
		return true
	}
	return false
}

// statsCollector holds the reusable scratch state of one collectStats run:
// the seen-identifier set, the per-depth node counts, the computed-access
// marks, and the walk cursor. Instances recycle through statsCollectorPool
// so the per-file cost is one allocation for the returned stats value; the
// traversal itself runs over ast.EachChild with a visit closure bound once
// per instance, so it neither builds child slices (as ast.Children would)
// nor allocates closures per call.
type statsCollector struct {
	st          *stats
	names       map[string]bool
	levelCounts []int
	// computedObjects is indexed by NodeID and marks the identifiers that
	// are the object of a computed member access (x[...]). It is sized to
	// the tree's NodeCount and all false between runs.
	computedObjects []bool
	depth           int
	exprNesting     int
	visit           func(ast.Node)
}

var statsCollectorPool = sync.Pool{New: func() any {
	c := &statsCollector{
		names:       make(map[string]bool, 256),
		levelCounts: make([]int, 0, 64),
	}
	c.visit = c.visitNode
	return c
}}

// collectStats tallies prog in one walk. prog must carry stamped NodeIDs
// (the parser stamps every tree, and flow stamps any tree it is handed
// unstamped), and bindings are the flow graph's bindings over that tree: the
// walk's computed-access marks decide which of them are fetched from arrays,
// matched by NodeID.
func collectStats(prog *ast.Program, bindings []*scope.Binding) *stats {
	c := statsCollectorPool.Get().(*statsCollector)
	st := &stats{builtins: make(map[string]bool)}
	c.st = st
	c.depth = 0
	c.exprNesting = 0
	if n := int(prog.NodeCount); cap(c.computedObjects) < n {
		c.computedObjects = make([]bool, n)
	} else {
		c.computedObjects = c.computedObjects[:n]
	}
	c.visit(prog)

	st.uniqueIdents = len(c.names)
	for _, cnt := range c.levelCounts {
		if cnt > st.breadth {
			st.breadth = cnt
		}
	}
	st.bindings = len(bindings)
	for _, b := range bindings {
		if c.fetchedFromArray(b) {
			st.arrayFetched++
		}
	}

	clear(c.names)
	clear(c.computedObjects)
	for i := range c.levelCounts {
		c.levelCounts[i] = 0
	}
	c.levelCounts = c.levelCounts[:0]
	c.st = nil
	statsCollectorPool.Put(c)
	return st
}

// fetchedFromArray reports whether b is initialized with an array or object
// literal and some reference to it is the object of a computed member
// access.
func (c *statsCollector) fetchedFromArray(b *scope.Binding) bool {
	switch b.Init.(type) {
	case *ast.ArrayExpression, *ast.ObjectExpression:
	default:
		return false
	}
	for _, ref := range b.Refs {
		if c.computedObjects[ref.NodeID()] {
			return true
		}
	}
	return false
}

// visitNode tallies one node into the run's stats and recurses through the
// pre-bound c.visit method value (passing visitNode itself would allocate a
// bound closure per node). Its allocation budget is the amortized growth of
// the pooled scratch state — append into levelCounts, inserts into the reused
// maps — which a warmed pool never pays.
//
//jslint:hotpath
func (c *statsCollector) visitNode(n ast.Node) {
	st := c.st
	st.nodes++
	// Depth-first order means depth can exceed the recorded levels by at
	// most one, so a single append keeps levelCounts indexed by depth.
	if c.depth == len(c.levelCounts) {
		c.levelCounts = append(c.levelCounts, 0)
	}
	c.levelCounts[c.depth]++
	if c.depth > st.depth {
		st.depth = c.depth
	}

	isExpr := !ast.IsStatement(n)
	if isExpr {
		c.exprNesting++
		if c.exprNesting > st.maxExprNesting {
			st.maxExprNesting = c.exprNesting
		}
	}

	switch v := n.(type) {
	case *ast.Identifier:
		st.identCount++
		st.identChars += len(v.Name)
		if !c.names[v.Name] { // most names repeat: a lookup is cheaper than an insert
			c.names[v.Name] = true
		}
		if strings.HasPrefix(v.Name, "_0x") {
			st.hexIdents++
		}
		if len(v.Name) <= 2 {
			st.shortIdents++
		}
		for i := 0; i < len(v.Name); i++ {
			if v.Name[i] < 128 {
				st.identCharHist[v.Name[i]]++
			}
		}
		if isBuiltin(v.Name) {
			st.builtins[v.Name] = true
		}
		if v.Name == "Function" {
			st.functionCtor++
		}
	case *ast.Literal:
		st.literalCount++
		switch v.Kind {
		case ast.LiteralString:
			st.stringCount++
			st.stringChars += len(v.String)
			for i := 0; i < len(v.String); i++ {
				if v.String[i] < 128 {
					st.stringCharHist[v.String[i]]++
				}
			}
			if analysis.LooksEncoded(v.String) {
				st.encodedStrings++
			}
			if analysis.LooksBase64(v.String) {
				st.base64Strings++
			}
			if v.String == "debugger" {
				st.debuggerStrings++
			}
		case ast.LiteralNumber:
			st.numberCount++
		case ast.LiteralRegExp:
			st.regexCount++
		}
	case *ast.CallExpression:
		st.callCount++
		if m, ok := v.Callee.(*ast.MemberExpression); ok && !m.Computed {
			if id, ok := m.Property.(*ast.Identifier); ok {
				if stringOpNames[id.Name] {
					st.stringOps++
				}
				if id.Name == "fromCharCode" {
					st.builtins["fromCharCode"] = true
				}
				if id.Name == "split" && len(v.Arguments) == 1 {
					if lit, ok := v.Arguments[0].(*ast.Literal); ok && lit.Kind == ast.LiteralString && lit.String == "|" {
						st.pipeSplit++
					}
				}
				if id.Name == "constructor" {
					st.functionCtor++
				}
			}
		}
		if len(v.Arguments) == 1 {
			if lit, ok := v.Arguments[0].(*ast.Literal); ok && lit.Kind == ast.LiteralNumber {
				if _, isID := v.Callee.(*ast.Identifier); isID {
					st.numericArgCalls++
				}
			}
		}
	case *ast.MemberExpression:
		st.memberCount++
		if v.Computed {
			st.bracketMember++
			if id, ok := v.Object.(*ast.Identifier); ok {
				c.computedObjects[id.NodeID()] = true
			}
		}
		if id, ok := v.Property.(*ast.Identifier); ok && !v.Computed && id.Name == "constructor" {
			st.functionCtor++
		}
	case *ast.ConditionalExpression:
		st.ternaryCount++
	case *ast.BinaryExpression:
		st.binaryCount++
		if v.Operator == "+" {
			if isStringLit(v.Left) || isStringLit(v.Right) {
				st.strConcat++
			}
		}
	case *ast.ArrayExpression:
		st.arrayCount++
		st.arrayElems += len(v.Elements)
		strElems := 0
		for _, el := range v.Elements {
			if isStringLit(el) {
				strElems++
			}
		}
		if strElems > st.largestStrArray {
			st.largestStrArray = strElems
		}
	case *ast.SwitchStatement:
		st.switchCount++
		st.caseCount += len(v.Cases)
	case *ast.WhileStatement:
		if lit, ok := v.Test.(*ast.Literal); ok && lit.Kind == ast.LiteralBoolean && lit.Bool {
			if blk, ok := v.Body.(*ast.BlockStatement); ok {
				for _, s := range blk.Body {
					if _, ok := s.(*ast.SwitchStatement); ok {
						st.whileTrueSwitch++
					}
				}
			}
		}
	case *ast.DebuggerStatement:
		st.debuggerCount++
	case *ast.TryStatement:
		if v.Handler != nil && v.Handler.Body != nil && len(v.Handler.Body.Body) == 0 {
			st.emptyCatch++
		}
	case *ast.FunctionDeclaration, *ast.FunctionExpression, *ast.ArrowFunctionExpression:
		st.funcCount++
	case *ast.NewExpression:
		if id, ok := v.Callee.(*ast.Identifier); ok && id.Name == "Function" {
			st.functionCtor++
		}
	}

	c.depth++
	ast.EachChild(n, c.visit)
	c.depth--
	if isExpr {
		c.exprNesting--
	}
}

func isStringLit(n ast.Node) bool {
	lit, ok := n.(*ast.Literal)
	return ok && lit.Kind == ast.LiteralString
}

// identEntropy is the Shannon entropy of the identifier character
// distribution, normalized to [0, 1].
func (st *stats) identEntropy() float64 {
	return entropy(st.identCharHist[:])
}

// stringEntropy is the Shannon entropy of string literal characters,
// normalized to [0, 1].
func (st *stats) stringEntropy() float64 {
	return entropy(st.stringCharHist[:])
}

func entropy(hist []int) float64 {
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h / 7 // log2(128) = 7 normalizes to [0, 1]
}
