package transform

import (
	"fmt"
	"math/rand"

	"repro/internal/js/ast"
	"repro/internal/js/walker"
)

// injectDeadCode inserts irrelevant instructions: never-taken branches
// guarded by opaque predicates, junk functions that are never called, and
// cloned-but-dead copies of real statements (Section II-A, logic structure
// obfuscation).
func injectDeadCode(prog *ast.Program, rng *rand.Rand) {
	// Clone pool: shallow-printable statements already in the program.
	pool := collectCloneableStatements(prog)

	insert := func(body []ast.Node) []ast.Node {
		if len(body) == 0 {
			return body
		}
		count := 1 + rng.Intn(3)
		for i := 0; i < count; i++ {
			pos := rng.Intn(len(body) + 1)
			stmt := makeDeadStatement(rng, pool)
			body = append(body[:pos], append([]ast.Node{stmt}, body[pos:]...)...)
		}
		return body
	}

	// Collect insertion targets up front so junk inserted along the way is
	// never itself a target (which would cascade).
	var targets []*ast.BlockStatement
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		switch v := n.(type) {
		case *ast.FunctionDeclaration:
			if v.Body != nil {
				targets = append(targets, v.Body)
			}
		case *ast.FunctionExpression:
			if v.Body != nil {
				targets = append(targets, v.Body)
			}
		}
		return true
	})
	prog.Body = insert(prog.Body)
	for _, body := range targets {
		if rng.Intn(2) == 0 {
			body.Body = insert(body.Body)
		}
	}
}

// collectCloneableStatements gathers simple statements whose dead clones look
// like real code. Statements containing function nodes are excluded: a
// by-reference clone of a statement inserted inside one of its own nested
// function bodies would make the tree cyclic.
func collectCloneableStatements(prog *ast.Program) []ast.Node {
	var pool []ast.Node
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		switch n.(type) {
		case *ast.ExpressionStatement, *ast.ReturnStatement:
			if !containsFunction(n) {
				pool = append(pool, n)
			}
		}
		return true
	})
	if len(pool) > 64 {
		pool = pool[:64]
	}
	return pool
}

func containsFunction(n ast.Node) bool {
	found := false
	walker.Walk(n, func(c ast.Node, _ int) bool {
		if ast.IsFunction(c) {
			found = true
			return false
		}
		return true
	})
	return found
}

// makeDeadStatement builds one dead-code fragment.
func makeDeadStatement(rng *rand.Rand, pool []ast.Node) ast.Node {
	switch rng.Intn(3) {
	case 0:
		return deadBranch(rng, pool)
	case 1:
		return junkFunction(rng)
	default:
		return deadLoop(rng)
	}
}

// opaquePredicate returns an always-false test that is not a literal
// `false`, e.g. `0x1f4 === 0x1f5` or `"xk" == "xq"`.
func opaquePredicate(rng *rand.Rand) ast.Node {
	switch rng.Intn(3) {
	case 0:
		a := rng.Intn(4096)
		return &ast.BinaryExpression{
			Operator: "===",
			Left:     ast.NewNumber(float64(a)),
			Right:    ast.NewNumber(float64(a + 1 + rng.Intn(64))),
		}
	case 1:
		return &ast.BinaryExpression{
			Operator: "==",
			Left:     ast.NewString(randWord(rng, 3)),
			Right:    ast.NewString(randWord(rng, 4)),
		}
	default:
		a := float64(2 + rng.Intn(8))
		return &ast.BinaryExpression{
			Operator: "<",
			Left: &ast.BinaryExpression{
				Operator: "*",
				Left:     ast.NewNumber(a),
				Right:    ast.NewNumber(a),
			},
			Right: ast.NewNumber(a),
		}
	}
}

// deadBranch builds `if (<opaque false>) { <junk or clone> }`.
func deadBranch(rng *rand.Rand, pool []ast.Node) ast.Node {
	var body []ast.Node
	if len(pool) > 0 && rng.Intn(2) == 0 {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			body = append(body, pool[rng.Intn(len(pool))])
		}
	} else {
		body = append(body, junkAssignment(rng))
	}
	return &ast.IfStatement{
		Test:       opaquePredicate(rng),
		Consequent: &ast.BlockStatement{Body: body},
	}
}

// junkFunction builds an uncalled function with plausible-looking junk.
func junkFunction(rng *rand.Rand) ast.Node {
	name := fmt.Sprintf("_f%04x", rng.Intn(0x10000))
	v := randIdent(rng, 3)
	return &ast.FunctionDeclaration{
		ID:     ast.NewIdentifier(name),
		Params: []ast.Node{ast.NewIdentifier(v)},
		Body: &ast.BlockStatement{Body: []ast.Node{
			&ast.ReturnStatement{Argument: &ast.BinaryExpression{
				Operator: "*",
				Left:     ast.NewIdentifier(v),
				Right:    ast.NewNumber(float64(1 + rng.Intn(100))),
			}},
		}},
	}
}

// deadLoop builds `while (<opaque false>) { junk }`.
func deadLoop(rng *rand.Rand) ast.Node {
	return &ast.WhileStatement{
		Test: opaquePredicate(rng),
		Body: &ast.BlockStatement{Body: []ast.Node{junkAssignment(rng)}},
	}
}

func junkAssignment(rng *rand.Rand) ast.Node {
	return &ast.ExpressionStatement{Expression: &ast.AssignmentExpression{
		Operator: "=",
		Left:     ast.NewIdentifier(randIdent(rng, 4)),
		Right:    ast.NewNumber(float64(rng.Intn(1000))),
	}}
}

func randWord(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// randIdent is randWord redrawn until the word is not reserved, so it can
// name a binding or an assignment target.
func randIdent(rng *rand.Rand, n int) string {
	for {
		if w := randWord(rng, n); !jsKeywords[w] {
			return w
		}
	}
}
