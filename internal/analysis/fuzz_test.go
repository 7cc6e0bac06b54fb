package analysis

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/js/parser"
)

// FuzzAnalyze checks the engine never panics on arbitrary parseable input
// and that every diagnostic carries a coherent span.
func FuzzAnalyze(f *testing.F) {
	seeds := []string{
		compositeSource,
		`var _0x1a2b = 1; function _0x3c4d(_0x5e6f) { return _0x1a2b + _0x5e6f; }`,
		`var a = atob("aGVsbG8gd29ybGQhIQ=="); eval(a);`,
		`var t = ["x", "y", "z", "w", "v", "u", "s", "r"]; function g(i) { return t[i - 4]; } g(4);`,
		`var o = "2|0|1".split("|"), i = 0; while (true) { switch (o[i++]) { case "0": b(); continue; case "1": a(); continue; case "2": c(); continue; } break; }`,
		`if (1 === 2) { dead(); } else { live(); }`,
		`p.constructor("return /" + this + "/")().constructor("^([^ ]+( +[^ ]+)+)+[^ ]}");`,
		`(function () {}).constructor("debugger").call("action"); setInterval(f, 4000);`,
		`[![],!![],+[],+!![],[![]],[!![]]];`,
		"`tpl ${1 + 2} tail`",
		`import { a as b } from "m"; export { b as c };`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := parser.ParseNoTokens(src)
		if err != nil {
			return
		}
		g := flow.NewSession().Build(res.Program)
		for _, d := range AnalyzeParsed(src, res, g) {
			if d.Rule == "" {
				t.Errorf("diagnostic without rule ID: %+v", d)
			}
			if d.Span.End.Offset < d.Span.Start.Offset {
				t.Errorf("inverted span in %s: %+v", d.Rule, d.Span)
			}
		}
	})
}
