package analysis

import (
	"fmt"

	"repro/internal/js/ast"
	"repro/internal/transform"
)

// ruleHexIdentifiers flags the `_0x<hex>` renaming scheme of the JavaScript
// obfuscator (Section II-B "identifier obfuscation").
func ruleHexIdentifiers() Rule {
	const (
		minSample = 8    // don't judge tiny files
		minRatio  = 0.25 // fraction of identifiers using the scheme
	)
	return &rule{
		info: RuleInfo{
			ID:        "hex-identifiers",
			Technique: transform.IdentifierObfuscation.String(),
			Severity:  SeverityWarning,
			Doc:       "identifiers follow the obfuscator's _0x<hex> renaming scheme",
			Nodes:     []ast.Kind{ast.KindIdentifier},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			total, hex := 0, 0
			var first ast.Range
			visit := func(n ast.Node) {
				id := n.(*ast.Identifier)
				total++
				if isHexIdentName(id.Name) {
					if hex == 0 {
						first = id.Range()
					}
					hex++
				}
			}
			finish := func() {
				if total < minSample {
					return
				}
				ratio := float64(hex) / float64(total)
				if ratio < minRatio {
					return
				}
				rep.Reportf(first, map[string]float64{
					"identifiers":     float64(total),
					"hex_identifiers": float64(hex),
					"ratio":           ratio,
				}, "%d of %d identifiers use the _0x hexadecimal naming scheme", hex, total)
			}
			return visit, finish
		},
	}
}

// ruleEncodedStrings flags literal payloads and decoder calls typical of
// string obfuscation: hex/unicode/percent escapes, base64 blobs, and the
// fromCharCode / atob / unescape / reverse-join decoding idioms.
func ruleEncodedStrings() Rule {
	const (
		minDecoderEvents = 3
		minEncodedRatio  = 0.3
	)
	decoderNames := map[string]bool{
		"atob": true, "unescape": true,
		"decodeURIComponent": true, "decodeURI": true,
	}
	return &rule{
		info: RuleInfo{
			ID:        "encoded-strings",
			Technique: transform.StringObfuscation.String(),
			Severity:  SeverityWarning,
			Doc:       "string literals are stored encoded and decoded at runtime",
			Nodes:     []ast.Kind{ast.KindLiteral, ast.KindCallExpression},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			stringCount, encoded, decoders := 0, 0, 0
			var first ast.Range
			hit := func(rng ast.Range) {
				if encoded+decoders == 0 {
					first = rng
				}
			}
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.Literal:
					if v.Kind != ast.LiteralString {
						return
					}
					stringCount++
					if LooksEncoded(v.String) || LooksBase64(v.String) {
						hit(v.Range())
						encoded++
					}
				case *ast.CallExpression:
					switch {
					case memberProp(v.Callee) == "fromCharCode" && len(v.Arguments) >= 2:
						hit(v.Range())
						decoders++
					case decoderNames[identName(v.Callee)] && len(v.Arguments) == 1:
						if _, ok := stringLit(v.Arguments[0]); ok {
							hit(v.Range())
							decoders++
						}
					case memberProp(v.Callee) == "join":
						// "..." .split("").reverse().join("") chains.
						if m := v.Callee.(*ast.MemberExpression); memberPropOfCall(m.Object) == "reverse" {
							hit(v.Range())
							decoders++
						}
					}
				}
			}
			finish := func() {
				ratio := 0.0
				if stringCount > 0 {
					ratio = float64(encoded) / float64(stringCount)
				}
				if decoders < minDecoderEvents && !(encoded >= 2 && ratio >= minEncodedRatio) {
					return
				}
				rep.Reportf(first, map[string]float64{
					"encoded_strings": float64(encoded),
					"decoder_calls":   float64(decoders),
					"strings":         float64(stringCount),
				}, "%d encoded string literals and %d runtime decoding calls", encoded, decoders)
			}
			return visit, finish
		},
	}
}

// memberPropOfCall returns the property name when n is a call on a
// non-computed member (`x.prop(...)`), or "".
func memberPropOfCall(n ast.Node) string {
	if call, ok := n.(*ast.CallExpression); ok {
		return memberProp(call.Callee)
	}
	return ""
}

// ruleStringArray flags the global-array transformation: a large array of
// string literals paired with an index-offset accessor function through
// which the program fetches its strings.
func ruleStringArray() Rule {
	// A matching accessor makes even a tiny array suspicious when the index
	// is shifted (real transform output on string-poor programs produces
	// 2-element arrays with large offsets); without an offset, demand a
	// sizable array.
	const (
		minArraySize     = 2
		minPlainArraySiz = 8
	)
	type accessor struct {
		name      string
		arrayName string
		offset    float64
		rng       ast.Range
	}
	return &rule{
		info: RuleInfo{
			ID:        "string-array",
			Technique: transform.GlobalArray.String(),
			Severity:  SeverityStrong,
			Doc:       "strings are moved to a global array behind an index-offset accessor",
			Nodes:     []ast.Kind{ast.KindVariableDeclarator, ast.KindFunctionDeclaration, ast.KindCallExpression},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			type arrayInfo struct {
				size int
				rng  ast.Range
			}
			arrays := make(map[string]arrayInfo)
			var accessors []accessor
			calls := make(map[string]int)
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.VariableDeclarator:
					name := identName(v.ID)
					arr, ok := v.Init.(*ast.ArrayExpression)
					if name == "" || !ok || len(arr.Elements) < minArraySize {
						return
					}
					strs := 0
					for _, el := range arr.Elements {
						if _, ok := stringLit(el); ok {
							strs++
						}
					}
					if strs*10 >= len(arr.Elements)*8 { // >= 80% strings
						arrays[name] = arrayInfo{size: len(arr.Elements), rng: v.Range()}
					}
				case *ast.FunctionDeclaration:
					if acc, ok := matchArrayAccessor(v); ok {
						accessors = append(accessors, accessor{
							name: acc.name, arrayName: acc.arrayName,
							offset: acc.offset, rng: v.Range(),
						})
					}
				case *ast.CallExpression:
					if name := identName(v.Callee); name != "" && len(v.Arguments) == 1 {
						if _, ok := numberLit(v.Arguments[0]); ok {
							calls[name]++
						}
					}
				}
			}
			finish := func() {
				for _, acc := range accessors {
					arr, ok := arrays[acc.arrayName]
					if !ok {
						continue
					}
					if acc.offset == 0 && arr.size < minPlainArraySiz {
						continue
					}
					rep.Reportf(arr.rng, map[string]float64{
						"array_size":     float64(arr.size),
						"index_offset":   acc.offset,
						"accessor_calls": float64(calls[acc.name]),
					}, "global array of %d strings read through accessor %s(i) with index offset %g (%d indexed calls)",
						arr.size, acc.name, acc.offset, calls[acc.name])
				}
			}
			return visit, finish
		},
	}
}

type accessorMatch struct {
	name      string
	arrayName string
	offset    float64
}

// matchArrayAccessor recognizes `function f(i){ return arr[i - K] }` (and
// the +K / bare-index variants) that the global-array transformation emits.
func matchArrayAccessor(fn *ast.FunctionDeclaration) (accessorMatch, bool) {
	var m accessorMatch
	if fn.ID == nil || len(fn.Params) != 1 || fn.Body == nil || len(fn.Body.Body) != 1 {
		return m, false
	}
	param := identName(fn.Params[0])
	if param == "" {
		return m, false
	}
	ret, ok := fn.Body.Body[0].(*ast.ReturnStatement)
	if !ok {
		return m, false
	}
	mem, ok := ret.Argument.(*ast.MemberExpression)
	if !ok || !mem.Computed {
		return m, false
	}
	m.name = fn.ID.Name
	m.arrayName = identName(mem.Object)
	if m.arrayName == "" {
		return m, false
	}
	switch idx := mem.Property.(type) {
	case *ast.Identifier:
		if idx.Name != param {
			return m, false
		}
		return m, true
	case *ast.BinaryExpression:
		if idx.Operator != "-" && idx.Operator != "+" {
			return m, false
		}
		if identName(idx.Left) != param {
			return m, false
		}
		k, ok := numberLit(idx.Right)
		if !ok {
			return m, false
		}
		if idx.Operator == "-" {
			m.offset = k
		} else {
			m.offset = -k
		}
		return m, true
	}
	return m, false
}

// ruleDynamicCodeSink flags eval/Function sinks fed by strings that are
// decoded or concatenated at runtime — including through a local variable,
// resolved via the scope information on the flow graph.
func ruleDynamicCodeSink() Rule {
	const maxReports = 5
	return &rule{
		info: RuleInfo{
			ID:        "dynamic-code-sink",
			Technique: transform.StringObfuscation.String(),
			Severity:  SeverityStrong,
			Doc:       "eval/Function executes strings built by decoding operations",
			Nodes:     []ast.Kind{ast.KindCallExpression, ast.KindNewExpression},
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			reported := 0
			type deferred struct {
				id   *ast.Identifier
				rng  ast.Range
				sink string
			}
			var pending []deferred
			report := func(rng ast.Range, sink, how string) {
				if reported >= maxReports {
					return
				}
				reported++
				rep.Reportf(rng, map[string]float64{"sinks": 1},
					"%s executes a string %s", sink, how)
			}
			check := func(rng ast.Range, sink string, arg ast.Node) {
				switch v := arg.(type) {
				case *ast.Literal:
					if s, ok := stringLit(v); ok && (LooksEncoded(s) || LooksBase64(s)) {
						report(rng, sink, "stored in encoded form")
					}
				case *ast.BinaryExpression:
					if v.Operator == "+" && containsStringWith(v, func(string) bool { return true }) {
						report(rng, sink, "assembled by concatenation")
					}
				case *ast.CallExpression:
					if isDecoderCall(v) {
						report(rng, sink, "produced by a decoding call")
					}
				case *ast.Identifier:
					if len(pending) < 16 {
						pending = append(pending, deferred{id: v, rng: rng, sink: sink})
					}
				}
			}
			visit := func(n ast.Node) {
				switch v := n.(type) {
				case *ast.CallExpression:
					if identName(v.Callee) == "eval" && len(v.Arguments) >= 1 {
						check(v.Range(), "eval", v.Arguments[0])
					}
					if identName(v.Callee) == "Function" && len(v.Arguments) >= 1 {
						check(v.Range(), "Function", v.Arguments[len(v.Arguments)-1])
					}
				case *ast.NewExpression:
					if identName(v.Callee) == "Function" && len(v.Arguments) >= 1 {
						check(v.Range(), "new Function", v.Arguments[len(v.Arguments)-1])
					}
				}
			}
			finish := func() {
				for _, d := range pending {
					b := ctx.Graph.Scopes.BindingOf(d.id)
					if b == nil || b.Init == nil {
						continue
					}
					if subtreeDecodes(b.Init) {
						report(d.rng, d.sink, fmt.Sprintf("decoded into variable %q", d.id.Name))
					}
				}
			}
			return visit, finish
		},
	}
}

// isDecoderCall reports calls that turn encoded data into strings.
func isDecoderCall(call *ast.CallExpression) bool {
	switch identName(call.Callee) {
	case "atob", "unescape", "decodeURIComponent", "decodeURI":
		return true
	}
	switch memberProp(call.Callee) {
	case "fromCharCode", "join", "replace":
		return true
	}
	return false
}

// subtreeDecodes scans a binding initializer for decoding constructs:
// decoder calls, string concatenation, or encoded literals.
func subtreeDecodes(n ast.Node) bool {
	found := false
	var visit func(ast.Node)
	visit = func(n ast.Node) {
		if found || n == nil {
			return
		}
		switch v := n.(type) {
		case *ast.CallExpression:
			if isDecoderCall(v) {
				found = true
				return
			}
		case *ast.BinaryExpression:
			if v.Operator == "+" {
				if _, ok := stringLit(v.Left); ok {
					found = true
					return
				}
				if _, ok := stringLit(v.Right); ok {
					found = true
					return
				}
			}
		case *ast.Literal:
			if s, ok := stringLit(v); ok && (LooksEncoded(s) || LooksBase64(s)) {
				found = true
				return
			}
		}
		ast.EachChild(n, visit)
	}
	visit(n)
	return found
}

// ruleNoAlphanumeric flags JSFuck-style sources written almost entirely in
// the []()!+ alphabet.
func ruleNoAlphanumeric() Rule {
	const (
		minBytes       = 64
		maxAlnumRatio  = 0.05
		minSymbolRatio = 0.4
	)
	return &rule{
		info: RuleInfo{
			ID:        "no-alphanumeric",
			Technique: transform.NoAlphanumeric.String(),
			Severity:  SeverityStrong,
			Doc:       "source is written in the JSFuck []()!+ alphabet",
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			finish := func() {
				if len(ctx.Src) < minBytes {
					return
				}
				st := ctx.Stats()
				alnum, jsfuck := st.Alnum, st.JSFuck
				if alnum > maxAlnumRatio || jsfuck < minSymbolRatio {
					return
				}
				var rng ast.Range
				if ctx.Program != nil {
					rng = ctx.Program.Range()
				}
				rep.Reportf(rng, map[string]float64{
					"alnum_ratio":  alnum,
					"symbol_ratio": jsfuck,
					"bytes":        float64(len(ctx.Src)),
				}, "%.1f%% of the source is alphanumeric; %.0f%% is the JSFuck []()!+ alphabet",
					alnum*100, jsfuck*100)
			}
			return nil, finish
		},
	}
}
