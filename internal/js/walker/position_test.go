package walker

import (
	"fmt"
	"testing"

	"repro/internal/js/ast"
)

// positionPrograms exercise every parser construct that historically
// produced zero-span nodes: labels, break/continue labels, shorthand
// properties and patterns, arrow single params, member property names,
// meta properties, template elements, class names, and import/export
// specifiers.
var positionPrograms = map[string]string{
	"labels": `outer: for (var i = 0; i < 3; i++) {
  inner: while (true) {
    if (i > 1) { break outer; }
    continue inner;
  }
}`,
	"members_and_arrows": `var obj = { a: 1, b() { return this.a; } };
var f = x => x * 2;
var g = async y => y + 1;
var v = obj.a + obj["b"]();
var opt = obj?.a ?? obj?.["a"];`,
	"shorthand_patterns": `var a = 1, b = 2;
var o = { a, b };
var { a: c = 3, b: d } = o;
function h({ a, b = 5 }) { return a + b; }`,
	"meta_and_templates": "function F() { if (new.target) { return 1; } }\n" +
		"var t = `head ${1 + 2} middle ${F()} tail`;\n" +
		"var plain = `no substitution`;\n" +
		"var tagged = String.raw`a${1}b`;",
	"classes_and_functions": `class Base { constructor() { this.x = 1; } get v() { return this.x; } }
class Derived extends Base { static make() { return new Derived(); } }
function named() {}
var expr = function alsoNamed() {};`,
	"modules": `import def from "mod";
import * as ns from "mod";
import { one, two as three } from "mod";
export { one, three as four };
export default def;
export * from "other";`,
	"obfuscated_shape": `var _0x12ab = ["a", "b", "c", "d", "e", "f", "g", "h"];
function _0x34cd(i) { return _0x12ab[i - 2]; }
while (true) { switch ("1|0".split("|")[k++]) { case "0": _0x34cd(2); continue; } break; }`,
}

// TestParsedNodesHavePositions asserts position fidelity end-to-end: every
// node the parser produces carries a real byte range. Every program here is
// non-empty, so the zero Range marks an unstamped node.
func TestParsedNodesHavePositions(t *testing.T) {
	for name, src := range positionPrograms {
		t.Run(name, func(t *testing.T) {
			prog := mustParse(t, src)
			Walk(prog, func(n ast.Node, _ int) bool {
				r := n.Range()
				if r == (ast.Range{}) {
					t.Errorf("%s node has no range (%s)", n.Type(), describe(src, r))
				}
				if r.End < r.Start || int(r.End) > len(src) {
					t.Errorf("%s node has an inverted or out-of-source range: %+v", n.Type(), r)
				}
				return true
			})
		})
	}
}

func describe(src string, r ast.Range) string {
	lo, hi := int(r.Start), int(r.End)
	if lo < 0 || hi > len(src) || lo >= hi {
		return "<empty>"
	}
	if hi-lo > 40 {
		hi = lo + 40
	}
	return fmt.Sprintf("%q", src[lo:hi])
}
