// Package deobfuscate statically reverses the transformation techniques the
// detector recognizes, where a static inverse exists: string-expression
// folding (concatenation, fromCharCode, atob, percent-decoding, reversal),
// global string-array resolution, control-flow unflattening, dead-branch
// pruning, bracket-to-dot normalization, and hex-identifier renaming. It is
// the natural companion to detection — the paper's Section V-B suggests
// building on the detector for malware analysis, and analysts deobfuscate
// flagged samples as the next step.
package deobfuscate

import (
	"encoding/base64"
	"fmt"
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
)

// Report counts what each pass changed.
type Report struct {
	FoldedStrings     int
	ResolvedArrayRefs int
	RemovedArrays     int
	UnflattenedBlocks int
	PrunedBranches    int
	DottedAccesses    int
	RenamedIdents     int
	Iterations        int
}

// String summarizes the report.
func (r Report) String() string {
	return fmt.Sprintf(
		"folded %d strings, resolved %d array refs (removed %d arrays), unflattened %d blocks, pruned %d branches, dotted %d accesses, renamed %d identifiers in %d iterations",
		r.FoldedStrings, r.ResolvedArrayRefs, r.RemovedArrays, r.UnflattenedBlocks,
		r.PrunedBranches, r.DottedAccesses, r.RenamedIdents, r.Iterations)
}

// Total is the number of individual rewrites applied.
func (r Report) Total() int {
	return r.FoldedStrings + r.ResolvedArrayRefs + r.RemovedArrays +
		r.UnflattenedBlocks + r.PrunedBranches + r.DottedAccesses + r.RenamedIdents
}

// Options selects passes; the zero value enables everything.
type Options struct {
	SkipStringFolding bool
	SkipGlobalArray   bool
	SkipUnflatten     bool
	SkipDeadBranches  bool
	SkipDotRewrite    bool
	SkipRename        bool
	// MaxIterations bounds the fixpoint loop; zero means 8.
	MaxIterations int
}

func (o Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return 8
	}
	return o.MaxIterations
}

// Source deobfuscates JavaScript source text and pretty-prints the result.
func Source(src string, opts Options) (string, Report, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return "", Report{}, fmt.Errorf("parse: %w", err)
	}
	report := Program(prog, opts)
	return printer.Pretty(prog), report, nil
}

// Program deobfuscates an AST in place.
func Program(prog *ast.Program, opts Options) Report {
	var total Report
	for i := 0; i < opts.maxIterations(); i++ {
		var round Report
		if !opts.SkipGlobalArray {
			resolveGlobalArrays(prog, &round)
		}
		if !opts.SkipStringFolding {
			foldStringExpressions(prog, &round)
		}
		if !opts.SkipUnflatten {
			unflatten(prog, &round)
		}
		if !opts.SkipDeadBranches {
			pruneDeadBranches(prog, &round)
		}
		total.FoldedStrings += round.FoldedStrings
		total.ResolvedArrayRefs += round.ResolvedArrayRefs
		total.RemovedArrays += round.RemovedArrays
		total.UnflattenedBlocks += round.UnflattenedBlocks
		total.PrunedBranches += round.PrunedBranches
		total.Iterations = i + 1
		if round.FoldedStrings+round.ResolvedArrayRefs+round.UnflattenedBlocks+round.PrunedBranches == 0 {
			break
		}
	}
	// One-shot cosmetic passes after the semantic fixpoint.
	if !opts.SkipDotRewrite {
		rewriteBracketsToDots(prog, &total)
	}
	if !opts.SkipRename {
		renameHexIdentifiers(prog, &total)
	}
	return total
}

// ---------------------------------------------------------------------------
// String-expression folding
// ---------------------------------------------------------------------------

// foldStringExpressions statically evaluates the string obfuscation
// patterns: "a"+"b", String.fromCharCode(...), atob("..."),
// decodeURIComponent("%.."), unescape, and "cba".split("").reverse()
// .join("").
func foldStringExpressions(prog *ast.Program, r *Report) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		if s, ok := evalStringExpr(n); ok {
			// Only count real folds, not literals that are already plain.
			if _, already := n.(*ast.Literal); !already {
				r.FoldedStrings++
				return ast.NewString(s)
			}
		}
		return n
	})
}

// evalStringExpr statically evaluates an expression to a string, when the
// expression is one of the known obfuscation shapes.
func evalStringExpr(n ast.Node) (string, bool) {
	switch v := n.(type) {
	case *ast.Literal:
		if v.Kind == ast.LiteralString {
			return v.String, true
		}
	case *ast.BinaryExpression:
		if v.Operator != "+" {
			return "", false
		}
		l, ok := evalStringExpr(v.Left)
		if !ok {
			return "", false
		}
		rhs, ok := evalStringExpr(v.Right)
		if !ok {
			return "", false
		}
		return l + rhs, true
	case *ast.CallExpression:
		return evalStringCall(v)
	}
	return "", false
}

func evalStringCall(call *ast.CallExpression) (string, bool) {
	// String.fromCharCode(…numbers…)
	if m, ok := call.Callee.(*ast.MemberExpression); ok && !m.Computed {
		if obj, ok := m.Object.(*ast.Identifier); ok && obj.Name == "String" {
			if prop, ok := m.Property.(*ast.Identifier); ok && prop.Name == "fromCharCode" {
				var sb strings.Builder
				for _, arg := range call.Arguments {
					lit, ok := arg.(*ast.Literal)
					if !ok || lit.Kind != ast.LiteralNumber {
						return "", false
					}
					sb.WriteRune(rune(int(lit.Number)))
				}
				return sb.String(), true
			}
		}
		// "cba".split("").reverse().join("")
		if s, ok := evalReverseChain(call); ok {
			return s, true
		}
	}
	if id, ok := call.Callee.(*ast.Identifier); ok && len(call.Arguments) == 1 {
		arg, ok := call.Arguments[0].(*ast.Literal)
		if !ok || arg.Kind != ast.LiteralString {
			return "", false
		}
		switch id.Name {
		case "atob":
			decoded, err := base64.StdEncoding.DecodeString(arg.String)
			if err != nil {
				return "", false
			}
			return string(decoded), true
		case "decodeURIComponent", "decodeURI", "unescape":
			return percentDecode(arg.String)
		}
	}
	return "", false
}

// evalReverseChain matches X.split("").reverse().join("") where X is a
// string literal, and returns the reversed string.
func evalReverseChain(join *ast.CallExpression) (string, bool) {
	jm, ok := join.Callee.(*ast.MemberExpression)
	if !ok || jm.Computed || !isIdent(jm.Property, "join") || !isEmptyStringArgs(join.Arguments) {
		return "", false
	}
	reverse, ok := jm.Object.(*ast.CallExpression)
	if !ok || len(reverse.Arguments) != 0 {
		return "", false
	}
	rm, ok := reverse.Callee.(*ast.MemberExpression)
	if !ok || rm.Computed || !isIdent(rm.Property, "reverse") {
		return "", false
	}
	split, ok := rm.Object.(*ast.CallExpression)
	if !ok {
		return "", false
	}
	sm, ok := split.Callee.(*ast.MemberExpression)
	if !ok || sm.Computed || !isIdent(sm.Property, "split") || !isEmptyStringArgs(split.Arguments) {
		return "", false
	}
	lit, ok := sm.Object.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralString {
		return "", false
	}
	runes := []rune(lit.String)
	for l, r := 0, len(runes)-1; l < r; l, r = l+1, r-1 {
		runes[l], runes[r] = runes[r], runes[l]
	}
	return string(runes), true
}

func isIdent(n ast.Node, name string) bool {
	id, ok := n.(*ast.Identifier)
	return ok && id.Name == name
}

func isEmptyStringArgs(args []ast.Node) bool {
	if len(args) != 1 {
		return false
	}
	lit, ok := args[0].(*ast.Literal)
	return ok && lit.Kind == ast.LiteralString && lit.String == ""
}

func percentDecode(s string) (string, bool) {
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '%' && i+2 < len(s) && isHexByte(s[i+1]) && isHexByte(s[i+2]) {
			sb.WriteByte(hexVal(s[i+1])<<4 | hexVal(s[i+2]))
			i += 3
			continue
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String(), true
}

func isHexByte(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func hexVal(b byte) byte {
	switch {
	case b >= '0' && b <= '9':
		return b - '0'
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10
	default:
		return b - 'A' + 10
	}
}
