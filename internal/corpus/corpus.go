package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/transform"
)

// File is one corpus member with its ground-truth labels.
type File struct {
	// Name identifies the file in reports.
	Name string
	// Source is the JavaScript text.
	Source string
	// Techniques is the ground-truth set of transformation techniques that
	// produced the file; empty means regular.
	Techniques []transform.Technique
	// Rank is the 1-based popularity rank of the owning site/package, when
	// the file belongs to a ranked collection.
	Rank int
	// Origin tags the collection ("alexa", "npm", "dnc", "hynek", "bsi").
	Origin string
	// Month indexes the crawl month for longitudinal collections (0-64 for
	// 2015-05 through 2020-09).
	Month int
}

// Transformed reports whether the file carries any technique label.
func (f *File) Transformed() bool { return len(f.Techniques) > 0 }

// Minified reports whether a minification technique was applied.
func (f *File) Minified() bool {
	for _, t := range f.Techniques {
		if t.IsMinification() {
			return true
		}
	}
	return false
}

// Obfuscated reports whether an obfuscation technique was applied.
func (f *File) Obfuscated() bool {
	for _, t := range f.Techniques {
		if !t.IsMinification() {
			return true
		}
	}
	return false
}

// Has reports whether the file carries the given technique label.
func (f *File) Has(t transform.Technique) bool {
	for _, have := range f.Techniques {
		if have == t {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Paper filters (Section III-D1)
// ---------------------------------------------------------------------------

// FilterReason explains why Filter rejected a file.
type FilterReason int

// Filter outcomes.
const (
	FilterAccepted FilterReason = iota + 1
	FilterTooSmall
	FilterTooLarge
	FilterNoCode
	FilterUnparsable
)

// MinSize and MaxSize are the paper's corpus bounds: 512 bytes to 2 MB.
const (
	MinSize = 512
	MaxSize = 2 << 20
)

// Filter applies the paper's file filters: size within [512 B, 2 MB] and an
// AST containing at least one conditional control-flow node, function node,
// or call-like node (footnotes 2-4).
func Filter(src string) FilterReason {
	if len(src) < MinSize {
		return FilterTooSmall
	}
	if len(src) > MaxSize {
		return FilterTooLarge
	}
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return FilterUnparsable
	}
	if !hasCodeNode(prog) {
		return FilterNoCode
	}
	return FilterAccepted
}

func hasCodeNode(prog *ast.Program) bool {
	found := false
	ast.Inspect(prog, func(n ast.Node) bool {
		if found {
			return false
		}
		if ast.IsConditionalControlFlow(n) || ast.IsFunction(n) || ast.IsCallLike(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Regular collection
// ---------------------------------------------------------------------------

// RegularSet generates n regular files that pass the paper's filters.
func RegularSet(n int, rng *rand.Rand) []File {
	files := make([]File, 0, n)
	for len(files) < n {
		src := GenerateRegular(rng)
		// Grow undersized files the way real files grow: more code.
		for attempts := 0; len(src) < MinSize && attempts < 8; attempts++ {
			src += "\n" + GenerateRegular(rng)
		}
		if Filter(src) != FilterAccepted {
			continue
		}
		files = append(files, File{
			Name:   fmt.Sprintf("regular_%05d.js", len(files)),
			Source: src,
		})
	}
	return files
}

// ---------------------------------------------------------------------------
// Transformation helpers
// ---------------------------------------------------------------------------

// canonicalOrder sorts a technique set into an application order that keeps
// every technique's trace intact: structure-level obfuscations first,
// code-protection next, minification after, and the all-consuming
// no-alphanumeric encoding last.
var applyPriority = map[transform.Technique]int{
	transform.StringObfuscation:     1,
	transform.GlobalArray:           2,
	transform.DeadCodeInjection:     3,
	transform.ControlFlowFlattening: 4,
	transform.IdentifierObfuscation: 5,
	transform.DebugProtection:       6,
	transform.SelfDefending:         7,
	transform.MinifySimple:          8,
	transform.MinifyAdvanced:        9,
	transform.NoAlphanumeric:        10,
}

func canonicalOrder(techs []transform.Technique) []transform.Technique {
	out := append([]transform.Technique(nil), techs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && applyPriority[out[j]] < applyPriority[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Apply transforms a regular file with the given technique set (applied in
// canonical order) and labels the result.
func Apply(f File, rng *rand.Rand, techs ...transform.Technique) (File, error) {
	ordered := canonicalOrder(techs)
	src, err := transform.Transform(f.Source, rng, ordered...)
	if err != nil {
		return File{}, fmt.Errorf("transform %s: %w", f.Name, err)
	}
	out := f
	out.Source = src
	out.Techniques = ordered
	return out, nil
}

// TransformPool transforms every base file once per monitored technique,
// mirroring Section III-D2 ("we transformed these 21,000 scripts 10 times",
// variants stored separately so techniques are not mixed).
func TransformPool(base []File, rng *rand.Rand) (map[transform.Technique][]File, error) {
	pool := make(map[transform.Technique][]File, len(transform.Techniques))
	for _, tech := range transform.Techniques {
		for _, f := range base {
			tf, err := Apply(f, rng, tech)
			if err != nil {
				return nil, err
			}
			tf.Name = fmt.Sprintf("%s_%s", sanitize(tech.String()), f.Name)
			pool[tech] = append(pool[tech], tf)
		}
	}
	return pool, nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '-' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}

// RandomCombo draws a technique set of the given size for the mixed-sample
// experiment (Section III-E2, 1-7 techniques per file).
func RandomCombo(rng *rand.Rand, size int) []transform.Technique {
	if size < 1 {
		size = 1
	}
	if size > 7 {
		size = 7
	}
	perm := rng.Perm(len(transform.Techniques))
	seen := make(map[transform.Technique]bool)
	var combo []transform.Technique
	for _, idx := range perm {
		t := transform.Techniques[idx]
		// NoAlphanumeric consumes every other trace; keep it out of combos
		// of size > 1 (the tools in the paper likewise do not stack JSFuck
		// under further transformations).
		if t == transform.NoAlphanumeric && size > 1 {
			continue
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		combo = append(combo, t)
		if len(combo) == size {
			break
		}
	}
	return combo
}
