package ast

// EachChild calls f for each direct non-nil child of n in source order,
// skipping nil slots (e.g. array elisions or absent else-branches). It is the
// single source of truth for tree traversal — Children and Inspect are
// built on it — and it never allocates, which matters to hot per-node passes
// like the flow builder and the static-analysis engine.
func EachChild(n Node, f func(Node)) {
	switch v := n.(type) {
	case *Program:
		each(v.Body, f)
	case *ExpressionStatement:
		walkOne(v.Expression, f)
	case *BlockStatement:
		each(v.Body, f)
	case *EmptyStatement, *DebuggerStatement, *Identifier, *Literal,
		*ThisExpression, *Super, *TemplateElement, *MetaProperty:
	case *WithStatement:
		walkOne(v.Object, f)
		walkOne(v.Body, f)
	case *ReturnStatement:
		walkOne(v.Argument, f)
	case *LabeledStatement:
		walkOne(ident(v.Label), f)
		walkOne(v.Body, f)
	case *BreakStatement:
		walkOne(ident(v.Label), f)
	case *ContinueStatement:
		walkOne(ident(v.Label), f)
	case *IfStatement:
		walkOne(v.Test, f)
		walkOne(v.Consequent, f)
		walkOne(v.Alternate, f)
	case *SwitchStatement:
		walkOne(v.Discriminant, f)
		for _, c := range v.Cases {
			if c != nil {
				f(c)
			}
		}
	case *SwitchCase:
		walkOne(v.Test, f)
		each(v.Consequent, f)
	case *ThrowStatement:
		walkOne(v.Argument, f)
	case *TryStatement:
		walkOne(block(v.Block), f)
		walkOne(clause(v.Handler), f)
		walkOne(block(v.Finalizer), f)
	case *CatchClause:
		walkOne(v.Param, f)
		walkOne(block(v.Body), f)
	case *WhileStatement:
		walkOne(v.Test, f)
		walkOne(v.Body, f)
	case *DoWhileStatement:
		walkOne(v.Body, f)
		walkOne(v.Test, f)
	case *ForStatement:
		walkOne(v.Init, f)
		walkOne(v.Test, f)
		walkOne(v.Update, f)
		walkOne(v.Body, f)
	case *ForInStatement:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
		walkOne(v.Body, f)
	case *ForOfStatement:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
		walkOne(v.Body, f)
	case *FunctionDeclaration:
		walkOne(ident(v.ID), f)
		each(v.Params, f)
		walkOne(block(v.Body), f)
	case *FunctionExpression:
		walkOne(ident(v.ID), f)
		each(v.Params, f)
		walkOne(block(v.Body), f)
	case *ArrowFunctionExpression:
		each(v.Params, f)
		walkOne(v.Body, f)
	case *VariableDeclaration:
		for _, d := range v.Declarations {
			if d != nil {
				f(d)
			}
		}
	case *VariableDeclarator:
		walkOne(v.ID, f)
		walkOne(v.Init, f)
	case *ClassDeclaration:
		walkOne(ident(v.ID), f)
		walkOne(v.SuperClass, f)
		walkOne(classBody(v.Body), f)
	case *ClassExpression:
		walkOne(ident(v.ID), f)
		walkOne(v.SuperClass, f)
		walkOne(classBody(v.Body), f)
	case *ClassBody:
		each(v.Body, f)
	case *MethodDefinition:
		walkOne(v.Key, f)
		walkOne(funcExpr(v.Value), f)
	case *PropertyDefinition:
		walkOne(v.Key, f)
		walkOne(v.Value, f)
	case *ImportDeclaration:
		each(v.Specifiers, f)
		walkOne(lit(v.Source), f)
	case *ImportSpecifier:
		walkOne(ident(v.Imported), f)
		walkOne(ident(v.Local), f)
	case *ImportDefaultSpecifier:
		walkOne(ident(v.Local), f)
	case *ImportNamespaceSpecifier:
		walkOne(ident(v.Local), f)
	case *ExportNamedDeclaration:
		walkOne(v.Declaration, f)
		for _, s := range v.Specifiers {
			if s != nil {
				f(s)
			}
		}
		walkOne(lit(v.Source), f)
	case *ExportSpecifier:
		walkOne(ident(v.Local), f)
		walkOne(ident(v.Exported), f)
	case *ExportDefaultDeclaration:
		walkOne(v.Declaration, f)
	case *ExportAllDeclaration:
		walkOne(lit(v.Source), f)
	case *ArrayExpression:
		each(v.Elements, f)
	case *ObjectExpression:
		each(v.Properties, f)
	case *Property:
		walkOne(v.Key, f)
		walkOne(v.Value, f)
	case *TemplateLiteral:
		// Interleave quasis and expressions in source order.
		for i, q := range v.Quasis {
			if q != nil {
				f(q)
			}
			if i < len(v.Expressions) && v.Expressions[i] != nil {
				f(v.Expressions[i])
			}
		}
	case *TaggedTemplateExpression:
		walkOne(v.Tag, f)
		walkOne(templ(v.Quasi), f)
	case *MemberExpression:
		walkOne(v.Object, f)
		walkOne(v.Property, f)
	case *CallExpression:
		walkOne(v.Callee, f)
		each(v.Arguments, f)
	case *NewExpression:
		walkOne(v.Callee, f)
		each(v.Arguments, f)
	case *SpreadElement:
		walkOne(v.Argument, f)
	case *UnaryExpression:
		walkOne(v.Argument, f)
	case *UpdateExpression:
		walkOne(v.Argument, f)
	case *BinaryExpression:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
	case *LogicalExpression:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
	case *AssignmentExpression:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
	case *ConditionalExpression:
		walkOne(v.Test, f)
		walkOne(v.Consequent, f)
		walkOne(v.Alternate, f)
	case *SequenceExpression:
		each(v.Expressions, f)
	case *RestElement:
		walkOne(v.Argument, f)
	case *AssignmentPattern:
		walkOne(v.Left, f)
		walkOne(v.Right, f)
	case *ArrayPattern:
		each(v.Elements, f)
	case *ObjectPattern:
		each(v.Properties, f)
	case *AwaitExpression:
		walkOne(v.Argument, f)
	case *YieldExpression:
		walkOne(v.Argument, f)
	}
}

// Children returns the direct child nodes of n in source order. It allocates
// a fresh slice; per-node hot paths should prefer EachChild.
func Children(n Node) []Node {
	var out []Node
	EachChild(n, func(c Node) { out = append(out, c) })
	return out
}

// Inspect traverses the tree rooted at n in pre-order, calling f for every
// node. When f returns false, Inspect skips that node's children.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	EachChild(n, func(c Node) { Inspect(c, f) })
}

// Rewrite rebuilds the tree bottom-up: children are rewritten first, then f
// maps the node itself to its replacement. Returning the node unchanged keeps
// it; returning nil is not allowed (use an EmptyStatement to delete a
// statement). The input tree is mutated in place (child fields are
// reassigned) and the possibly-replaced root is returned.
func Rewrite(n Node, f func(Node) Node) Node {
	if n == nil {
		return nil
	}
	rewriteChildren(n, f)
	return f(n)
}

// rwSlice rewrites each entry of nodes in place, leaving nil holes (array
// elisions) nil.
func rwSlice(nodes []Node, f func(Node) Node) []Node {
	for i, n := range nodes {
		nodes[i] = Rewrite(n, f)
	}
	return nodes
}

func rwBlock(b *BlockStatement, f func(Node) Node) *BlockStatement {
	if b == nil {
		return nil
	}
	out := Rewrite(b, f)
	if blk, ok := out.(*BlockStatement); ok {
		return blk
	}
	// A rewriter replaced a block with a non-block statement; wrap it to keep
	// the field type.
	return &BlockStatement{Body: []Node{out}}
}

func rewriteChildren(n Node, f func(Node) Node) {
	switch v := n.(type) {
	case *Program:
		v.Body = rwSlice(v.Body, f)
	case *ExpressionStatement:
		v.Expression = Rewrite(v.Expression, f)
	case *BlockStatement:
		v.Body = rwSlice(v.Body, f)
	case *WithStatement:
		v.Object = Rewrite(v.Object, f)
		v.Body = Rewrite(v.Body, f)
	case *ReturnStatement:
		v.Argument = Rewrite(v.Argument, f)
	case *LabeledStatement:
		v.Body = Rewrite(v.Body, f)
	case *IfStatement:
		v.Test = Rewrite(v.Test, f)
		v.Consequent = Rewrite(v.Consequent, f)
		v.Alternate = Rewrite(v.Alternate, f)
	case *SwitchStatement:
		v.Discriminant = Rewrite(v.Discriminant, f)
		for _, c := range v.Cases {
			c.Test = Rewrite(c.Test, f)
			c.Consequent = rwSlice(c.Consequent, f)
		}
	case *ThrowStatement:
		v.Argument = Rewrite(v.Argument, f)
	case *TryStatement:
		v.Block = rwBlock(v.Block, f)
		if v.Handler != nil {
			v.Handler.Param = Rewrite(v.Handler.Param, f)
			v.Handler.Body = rwBlock(v.Handler.Body, f)
		}
		v.Finalizer = rwBlock(v.Finalizer, f)
	case *WhileStatement:
		v.Test = Rewrite(v.Test, f)
		v.Body = Rewrite(v.Body, f)
	case *DoWhileStatement:
		v.Body = Rewrite(v.Body, f)
		v.Test = Rewrite(v.Test, f)
	case *ForStatement:
		v.Init = Rewrite(v.Init, f)
		v.Test = Rewrite(v.Test, f)
		v.Update = Rewrite(v.Update, f)
		v.Body = Rewrite(v.Body, f)
	case *ForInStatement:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
		v.Body = Rewrite(v.Body, f)
	case *ForOfStatement:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
		v.Body = Rewrite(v.Body, f)
	case *FunctionDeclaration:
		v.Params = rwSlice(v.Params, f)
		v.Body = rwBlock(v.Body, f)
	case *VariableDeclaration:
		for _, d := range v.Declarations {
			d.ID = Rewrite(d.ID, f)
			d.Init = Rewrite(d.Init, f)
		}
	case *ClassDeclaration:
		v.SuperClass = Rewrite(v.SuperClass, f)
		rewriteClassBody(v.Body, f)
	case *ClassExpression:
		v.SuperClass = Rewrite(v.SuperClass, f)
		rewriteClassBody(v.Body, f)
	case *ExportNamedDeclaration:
		v.Declaration = Rewrite(v.Declaration, f)
	case *ExportDefaultDeclaration:
		v.Declaration = Rewrite(v.Declaration, f)
	case *ArrayExpression:
		v.Elements = rwSlice(v.Elements, f)
	case *ObjectExpression:
		v.Properties = rwSlice(v.Properties, f)
	case *Property:
		v.Key = Rewrite(v.Key, f)
		v.Value = Rewrite(v.Value, f)
	case *FunctionExpression:
		v.Params = rwSlice(v.Params, f)
		v.Body = rwBlock(v.Body, f)
	case *ArrowFunctionExpression:
		v.Params = rwSlice(v.Params, f)
		v.Body = Rewrite(v.Body, f)
	case *TemplateLiteral:
		v.Expressions = rwSlice(v.Expressions, f)
	case *TaggedTemplateExpression:
		v.Tag = Rewrite(v.Tag, f)
		if q := Rewrite(v.Quasi, f); q != nil {
			if tq, ok := q.(*TemplateLiteral); ok {
				v.Quasi = tq
			}
		}
	case *MemberExpression:
		v.Object = Rewrite(v.Object, f)
		v.Property = Rewrite(v.Property, f)
	case *CallExpression:
		v.Callee = Rewrite(v.Callee, f)
		v.Arguments = rwSlice(v.Arguments, f)
	case *NewExpression:
		v.Callee = Rewrite(v.Callee, f)
		v.Arguments = rwSlice(v.Arguments, f)
	case *SpreadElement:
		v.Argument = Rewrite(v.Argument, f)
	case *UnaryExpression:
		v.Argument = Rewrite(v.Argument, f)
	case *UpdateExpression:
		v.Argument = Rewrite(v.Argument, f)
	case *BinaryExpression:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
	case *LogicalExpression:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
	case *AssignmentExpression:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
	case *ConditionalExpression:
		v.Test = Rewrite(v.Test, f)
		v.Consequent = Rewrite(v.Consequent, f)
		v.Alternate = Rewrite(v.Alternate, f)
	case *SequenceExpression:
		v.Expressions = rwSlice(v.Expressions, f)
	case *RestElement:
		v.Argument = Rewrite(v.Argument, f)
	case *AssignmentPattern:
		v.Left = Rewrite(v.Left, f)
		v.Right = Rewrite(v.Right, f)
	case *ArrayPattern:
		v.Elements = rwSlice(v.Elements, f)
	case *ObjectPattern:
		v.Properties = rwSlice(v.Properties, f)
	case *AwaitExpression:
		v.Argument = Rewrite(v.Argument, f)
	case *YieldExpression:
		v.Argument = Rewrite(v.Argument, f)
	}
}

func rewriteClassBody(b *ClassBody, f func(Node) Node) {
	if b == nil {
		return
	}
	for _, member := range b.Body {
		switch m := member.(type) {
		case *MethodDefinition:
			m.Key = Rewrite(m.Key, f)
			if m.Value != nil {
				m.Value.Params = rwSlice(m.Value.Params, f)
				m.Value.Body = rwBlock(m.Value.Body, f)
			}
		case *PropertyDefinition:
			m.Key = Rewrite(m.Key, f)
			m.Value = Rewrite(m.Value, f)
		}
	}
}

// each applies f to the non-nil entries of nodes.
func each(nodes []Node, f func(Node)) {
	for _, n := range nodes {
		if n != nil {
			f(n)
		}
	}
}

// walkOne applies f to n when it is non-nil.
func walkOne(n Node, f func(Node)) {
	if n != nil {
		f(n)
	}
}

// IsStatement reports whether n is a statement-level node, i.e. a node that
// participates in control flow per the paper's restriction of control edges
// to statement nodes (plus CatchClause and ConditionalExpression, which the
// flow package adds explicitly).
func IsStatement(n Node) bool {
	return n != nil && statementKinds[n.NodeKind()]
}

// IsConditionalControlFlow reports whether n is one of the conditional
// control-flow node types the paper uses as a corpus filter (footnote 2):
// loops, if, ternary, try, and switch.
func IsConditionalControlFlow(n Node) bool {
	return n != nil && conditionalControlFlowKinds[n.NodeKind()]
}

// IsFunction reports whether n is one of the function node types from the
// paper's corpus filter (footnote 3).
func IsFunction(n Node) bool {
	return n != nil && functionKinds[n.NodeKind()]
}

// IsCallLike reports whether n is a CallExpression or a
// TaggedTemplateExpression (footnote 4: the call filter includes tagged
// templates).
func IsCallLike(n Node) bool {
	return n != nil && callLikeKinds[n.NodeKind()]
}

// The helpers below exist to turn possibly-nil typed pointers into Node
// values without producing non-nil interfaces that wrap nil pointers.

func ident(id *Identifier) Node {
	if id == nil {
		return nil
	}
	return id
}

func block(b *BlockStatement) Node {
	if b == nil {
		return nil
	}
	return b
}

func clause(c *CatchClause) Node {
	if c == nil {
		return nil
	}
	return c
}

func classBody(b *ClassBody) Node {
	if b == nil {
		return nil
	}
	return b
}

func funcExpr(f *FunctionExpression) Node {
	if f == nil {
		return nil
	}
	return f
}

func lit(l *Literal) Node {
	if l == nil {
		return nil
	}
	return l
}

func templ(t *TemplateLiteral) Node {
	if t == nil {
		return nil
	}
	return t
}
