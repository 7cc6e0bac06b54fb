package transform

import (
	"math/rand"

	"repro/internal/js/ast"
)

// FieldReference is the "obfuscated field reference" technique the paper
// describes but does NOT monitor (Section II-A): property accesses switch
// from dot to bracket notation (`a.b` → `a["b"]`), often with the property
// name additionally split or encoded. The paper's claim — reproduced by the
// unmonitored-technique experiment — is that level 1 still flags such files
// as transformed even though level 2 has no class for them.
const FieldReference Technique = 100

// applyFieldReference rewrites dot accesses into bracket notation, and with
// probability 1/3 hides the property string behind a concatenation.
func applyFieldReference(prog *ast.Program, rng *rand.Rand) {
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		m, ok := n.(*ast.MemberExpression)
		if !ok || m.Computed || m.Optional {
			return n
		}
		id, ok := m.Property.(*ast.Identifier)
		if !ok {
			return n
		}
		var prop ast.Node
		if len(id.Name) >= 3 && rng.Intn(3) != 0 {
			cut := 1 + rng.Intn(len(id.Name)-1)
			prop = &ast.BinaryExpression{
				Operator: "+",
				Left:     ast.NewString(id.Name[:cut]),
				Right:    ast.NewString(id.Name[cut:]),
			}
		} else {
			prop = ast.NewString(id.Name)
		}
		return &ast.MemberExpression{Object: m.Object, Property: prop, Computed: true}
	})
}
