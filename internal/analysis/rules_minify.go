package analysis

import (
	"repro/internal/js/ast"
	"repro/internal/transform"
)

// ruleMinifiedSource flags whitespace/comment-stripped sources packed into
// very long lines — the text-level trace of minification.
func ruleMinifiedSource() Rule {
	const (
		minBytes          = 512
		minAvgLine        = 200.0
		minMaxLine        = 800
		maxWhitespace     = 0.06
		maxCommentContent = 0.01
	)
	return &rule{
		info: RuleInfo{
			ID:        "minified-source",
			Technique: transform.MinifySimple.String(),
			Severity:  SeverityWarning,
			Doc:       "whitespace and comments stripped, source packed into long lines",
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			finish := func() {
				src := ctx.Src
				if len(src) < minBytes {
					return
				}
				st := ctx.Stats()
				avgLine := float64(len(src)) / float64(st.Lines)
				maxLine := st.MaxLine
				ws := st.Whitespace
				comments := 0.0
				if ctx.Result != nil {
					comments = CommentRatio(ctx.Result.Comments, len(src))
				}
				if ws > maxWhitespace || comments > maxCommentContent {
					return
				}
				if avgLine < minAvgLine && maxLine < minMaxLine {
					return
				}
				var rng ast.Range
				if ctx.Program != nil {
					rng = ctx.Program.Range()
				}
				rep.Reportf(rng, map[string]float64{
					"avg_line_len":     avgLine,
					"max_line_len":     float64(maxLine),
					"whitespace_ratio": ws,
					"comment_ratio":    comments,
				}, "source is packed into long lines (avg %.0f bytes) with %.1f%% whitespace and no comments",
					avgLine, ws*100)
			}
			return nil, finish
		},
	}
}

// ruleRenamedIdentifiers flags wholesale renaming of declared bindings to
// 1-2 character names — the advanced-minification identifier shortening.
func ruleRenamedIdentifiers() Rule {
	const (
		minBindings = 12
		minRatio    = 0.75
	)
	return &rule{
		info: RuleInfo{
			ID:        "renamed-identifiers",
			Technique: transform.MinifyAdvanced.String(),
			Severity:  SeverityWarning,
			Doc:       "declared bindings renamed to 1-2 character identifiers",
		},
		start: func(ctx *Context, rep *Reporter) (Visit, FinishFunc) {
			finish := func() {
				declared, short := 0, 0
				var first ast.Range
				for _, b := range ctx.Graph.Scopes.Bindings {
					if b.Decl == nil {
						continue
					}
					declared++
					if len(b.Name) <= 2 {
						if short == 0 {
							first = b.Decl.Range()
						}
						short++
					}
				}
				if declared < minBindings {
					return
				}
				ratio := float64(short) / float64(declared)
				if ratio < minRatio {
					return
				}
				rep.Reportf(first, map[string]float64{
					"bindings":       float64(declared),
					"short_bindings": float64(short),
					"ratio":          ratio,
				}, "%d of %d declared bindings use 1-2 character names", short, declared)
			}
			return nil, finish
		},
	}
}
