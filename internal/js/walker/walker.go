// Package walker provides AST traversal and rewriting utilities shared by
// the static analysis engine, the code transformers, the deobfuscator, and
// the corpus generator.
package walker

import (
	"repro/internal/js/ast"
)

// Visitor is called for each node during Walk. Returning false skips the
// node's children.
type Visitor func(n ast.Node, depth int) bool

// Walk traverses the AST rooted at n in pre-order, calling v for every node.
func Walk(n ast.Node, v Visitor) {
	walk(n, 0, v)
}

func walk(n ast.Node, depth int, v Visitor) {
	if n == nil {
		return
	}
	if !v(n, depth) {
		return
	}
	ast.EachChild(n, func(c ast.Node) { walk(c, depth+1, v) })
}

// RewriteFunc maps a node to its replacement. Returning the node unchanged
// keeps it; returning nil is not allowed (use an EmptyStatement to delete a
// statement).
type RewriteFunc func(n ast.Node) ast.Node

// Rewrite rebuilds the tree bottom-up: children are rewritten first, then f
// is applied to the node itself. The input tree is mutated in place (child
// fields are reassigned) and the possibly-replaced root is returned.
func Rewrite(n ast.Node, f RewriteFunc) ast.Node {
	if n == nil {
		return nil
	}
	rewriteChildren(n, f)
	return f(n)
}

func rw(n ast.Node, f RewriteFunc) ast.Node {
	if n == nil {
		return nil
	}
	return Rewrite(n, f)
}

func rwSlice(nodes []ast.Node, f RewriteFunc) []ast.Node {
	for i, n := range nodes {
		if n != nil {
			nodes[i] = Rewrite(n, f)
		}
	}
	return nodes
}

func rwBlock(b *ast.BlockStatement, f RewriteFunc) *ast.BlockStatement {
	if b == nil {
		return nil
	}
	out := Rewrite(b, f)
	if blk, ok := out.(*ast.BlockStatement); ok {
		return blk
	}
	// A rewriter replaced a block with a non-block statement; wrap it to keep
	// the field type.
	return &ast.BlockStatement{Body: []ast.Node{out}}
}

func rewriteChildren(n ast.Node, f RewriteFunc) {
	switch v := n.(type) {
	case *ast.Program:
		v.Body = rwSlice(v.Body, f)
	case *ast.ExpressionStatement:
		v.Expression = rw(v.Expression, f)
	case *ast.BlockStatement:
		v.Body = rwSlice(v.Body, f)
	case *ast.WithStatement:
		v.Object = rw(v.Object, f)
		v.Body = rw(v.Body, f)
	case *ast.ReturnStatement:
		v.Argument = rw(v.Argument, f)
	case *ast.LabeledStatement:
		v.Body = rw(v.Body, f)
	case *ast.IfStatement:
		v.Test = rw(v.Test, f)
		v.Consequent = rw(v.Consequent, f)
		v.Alternate = rw(v.Alternate, f)
	case *ast.SwitchStatement:
		v.Discriminant = rw(v.Discriminant, f)
		for _, c := range v.Cases {
			c.Test = rw(c.Test, f)
			c.Consequent = rwSlice(c.Consequent, f)
		}
	case *ast.ThrowStatement:
		v.Argument = rw(v.Argument, f)
	case *ast.TryStatement:
		v.Block = rwBlock(v.Block, f)
		if v.Handler != nil {
			v.Handler.Param = rw(v.Handler.Param, f)
			v.Handler.Body = rwBlock(v.Handler.Body, f)
		}
		v.Finalizer = rwBlock(v.Finalizer, f)
	case *ast.WhileStatement:
		v.Test = rw(v.Test, f)
		v.Body = rw(v.Body, f)
	case *ast.DoWhileStatement:
		v.Body = rw(v.Body, f)
		v.Test = rw(v.Test, f)
	case *ast.ForStatement:
		v.Init = rw(v.Init, f)
		v.Test = rw(v.Test, f)
		v.Update = rw(v.Update, f)
		v.Body = rw(v.Body, f)
	case *ast.ForInStatement:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
		v.Body = rw(v.Body, f)
	case *ast.ForOfStatement:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
		v.Body = rw(v.Body, f)
	case *ast.FunctionDeclaration:
		v.Params = rwSlice(v.Params, f)
		v.Body = rwBlock(v.Body, f)
	case *ast.VariableDeclaration:
		for _, d := range v.Declarations {
			d.ID = rw(d.ID, f)
			d.Init = rw(d.Init, f)
		}
	case *ast.ClassDeclaration:
		v.SuperClass = rw(v.SuperClass, f)
		rewriteClassBody(v.Body, f)
	case *ast.ClassExpression:
		v.SuperClass = rw(v.SuperClass, f)
		rewriteClassBody(v.Body, f)
	case *ast.ExportNamedDeclaration:
		v.Declaration = rw(v.Declaration, f)
	case *ast.ExportDefaultDeclaration:
		v.Declaration = rw(v.Declaration, f)
	case *ast.ArrayExpression:
		v.Elements = rwNullable(v.Elements, f)
	case *ast.ObjectExpression:
		v.Properties = rwSlice(v.Properties, f)
	case *ast.Property:
		v.Key = rw(v.Key, f)
		v.Value = rw(v.Value, f)
	case *ast.FunctionExpression:
		v.Params = rwSlice(v.Params, f)
		v.Body = rwBlock(v.Body, f)
	case *ast.ArrowFunctionExpression:
		v.Params = rwSlice(v.Params, f)
		v.Body = rw(v.Body, f)
	case *ast.TemplateLiteral:
		v.Expressions = rwSlice(v.Expressions, f)
	case *ast.TaggedTemplateExpression:
		v.Tag = rw(v.Tag, f)
		if q := rw(v.Quasi, f); q != nil {
			if tq, ok := q.(*ast.TemplateLiteral); ok {
				v.Quasi = tq
			}
		}
	case *ast.MemberExpression:
		v.Object = rw(v.Object, f)
		v.Property = rw(v.Property, f)
	case *ast.CallExpression:
		v.Callee = rw(v.Callee, f)
		v.Arguments = rwSlice(v.Arguments, f)
	case *ast.NewExpression:
		v.Callee = rw(v.Callee, f)
		v.Arguments = rwSlice(v.Arguments, f)
	case *ast.SpreadElement:
		v.Argument = rw(v.Argument, f)
	case *ast.UnaryExpression:
		v.Argument = rw(v.Argument, f)
	case *ast.UpdateExpression:
		v.Argument = rw(v.Argument, f)
	case *ast.BinaryExpression:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
	case *ast.LogicalExpression:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
	case *ast.AssignmentExpression:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
	case *ast.ConditionalExpression:
		v.Test = rw(v.Test, f)
		v.Consequent = rw(v.Consequent, f)
		v.Alternate = rw(v.Alternate, f)
	case *ast.SequenceExpression:
		v.Expressions = rwSlice(v.Expressions, f)
	case *ast.RestElement:
		v.Argument = rw(v.Argument, f)
	case *ast.AssignmentPattern:
		v.Left = rw(v.Left, f)
		v.Right = rw(v.Right, f)
	case *ast.ArrayPattern:
		v.Elements = rwNullable(v.Elements, f)
	case *ast.ObjectPattern:
		v.Properties = rwSlice(v.Properties, f)
	case *ast.AwaitExpression:
		v.Argument = rw(v.Argument, f)
	case *ast.YieldExpression:
		v.Argument = rw(v.Argument, f)
	}
}

func rewriteClassBody(b *ast.ClassBody, f RewriteFunc) {
	if b == nil {
		return
	}
	for _, member := range b.Body {
		switch m := member.(type) {
		case *ast.MethodDefinition:
			m.Key = rw(m.Key, f)
			if m.Value != nil {
				m.Value.Params = rwSlice(m.Value.Params, f)
				m.Value.Body = rwBlock(m.Value.Body, f)
			}
		case *ast.PropertyDefinition:
			m.Key = rw(m.Key, f)
			m.Value = rw(m.Value, f)
		}
	}
}

// rwNullable rewrites a slice that may contain nil holes (array elisions).
func rwNullable(nodes []ast.Node, f RewriteFunc) []ast.Node {
	for i, n := range nodes {
		if n != nil {
			nodes[i] = Rewrite(n, f)
		}
	}
	return nodes
}
