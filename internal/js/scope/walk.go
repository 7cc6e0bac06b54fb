package scope

import (
	"repro/internal/js/ast"
)

// This file is the fused walk: one traversal that does what the refspec
// analyzer's reference-resolution walk and the flow package's control-edge
// walk used to do separately. Scope behavior must stay identical to
// internal/js/scope/refspec; the control-edge count must stay identical to
// the edge count of the original cfg builder preserved in internal/flow's
// differential test.
//
// Control wiring is tracked by the analyzer's wire flag, which replicates
// the reachability of the old builder's funcBodies walk: statements are
// chained and function bodies wired only inside regions the old builder
// visited. The flag is inherited through generic expressions (call
// arguments, object properties, class *expressions*) and switched off for
// the exact slots the old builder skipped: throw arguments, do-while tests,
// for-in/of left/right, with objects, switch-case tests, class
// *declarations*, function parameters, arrow expression bodies, and pattern
// defaults of statement-level variable declarations (for-init declarations
// wire their defaults — the old builder walked the whole init). Each case
// that flips the flag restores it before returning. ConditionalExpression
// edges are NOT wire-gated: the old builder added them in a full-tree pass.

// visitStmts visits a statement list owned by parent, chaining control
// edges (parent→first, prev→next, with terminating statements breaking the
// chain) when the region is wired.
func (a *analyzer) visitStmts(parent ast.Node, stmts []ast.Node) {
	if a.wire {
		var prev ast.Node
		for _, s := range stmts {
			if prev == nil {
				a.edge(parent, s)
			} else {
				a.edge(prev, s)
			}
			a.visit(s)
			if terminates(s) {
				prev = nil
			} else {
				prev = s
			}
		}
		return
	}
	for _, s := range stmts {
		a.visit(s)
	}
}

// terminates reports whether control cannot fall through s.
func terminates(s ast.Node) bool {
	switch v := s.(type) {
	case *ast.ReturnStatement, *ast.ThrowStatement, *ast.BreakStatement, *ast.ContinueStatement:
		return true
	case *ast.BlockStatement:
		if len(v.Body) == 0 {
			return false
		}
		return terminates(v.Body[len(v.Body)-1])
	default:
		return false
	}
}

// visit resolves references and counts control edges for n within the
// current scope (a.sc) and wiring region (a.wire), creating child scopes as
// it descends. Cases that have neither scope nor control behavior fall
// through to a plain EachChild descent via the pre-bound a.descend hook.
func (a *analyzer) visit(n ast.Node) {
	if n == nil {
		return
	}
	switch v := n.(type) {
	case *ast.Identifier:
		a.reference(v)
	case *ast.VariableDeclaration:
		a.visitVarDecl(v, false)
	case *ast.FunctionDeclaration:
		a.visitFunction(v, v.Params, bodyNode(v.Body))
	case *ast.FunctionExpression:
		a.visitFunction(v, v.Params, bodyNode(v.Body))
	case *ast.ArrowFunctionExpression:
		a.visitFunction(v, v.Params, v.Body)
	case *ast.ClassDeclaration:
		// Class declarations are opaque to statement control flow (the old
		// builder had no stmt case for them); their methods stay unwired.
		w := a.wire
		a.wire = false
		a.visitClass(v.SuperClass, v.Body)
		a.wire = w
	case *ast.ClassExpression:
		// Class expressions inherit the region: the old funcBodies walk
		// descended into them, wiring their method bodies.
		a.visitClass(v.SuperClass, v.Body)
	case *ast.BlockStatement:
		sc := a.sc
		a.sc = a.newChild(v, false)
		a.collectLexical(v.Body)
		a.visitStmts(v, v.Body)
		a.sc = sc
	case *ast.IfStatement:
		a.visit(v.Test)
		a.edgeIfWired(v, v.Consequent)
		a.visit(v.Consequent)
		if v.Alternate != nil {
			a.edgeIfWired(v, v.Alternate)
			a.visit(v.Alternate)
		}
	case *ast.WhileStatement:
		a.visit(v.Test)
		a.edgeIfWired(v, v.Body)
		a.visit(v.Body)
		a.edgeIfWired(v.Body, v) // back edge
	case *ast.DoWhileStatement:
		a.edgeIfWired(v, v.Body)
		a.visit(v.Body)
		a.edgeIfWired(v.Body, v)
		w := a.wire
		a.wire = false // do-while tests were never funcBodies-walked
		a.visit(v.Test)
		a.wire = w
	case *ast.ForStatement:
		sc := a.sc
		a.sc = a.newChild(v, false)
		if decl, ok := v.Init.(*ast.VariableDeclaration); ok {
			if decl.Kind != "var" {
				for _, d := range decl.Declarations {
					a.declarePattern(a.sc, d.ID, kindOf(decl.Kind), d.Init)
				}
			}
			// For-init declarations wire their pattern defaults too: the
			// old builder ran funcBodies over the entire init.
			a.visitVarDecl(decl, true)
		} else {
			a.visit(v.Init)
		}
		a.visit(v.Test)
		a.visit(v.Update)
		a.edgeIfWired(v, v.Body)
		a.visit(v.Body)
		a.edgeIfWired(v.Body, v)
		a.sc = sc
	case *ast.ForInStatement:
		a.visitForInOf(v.Left, v.Right, v.Body, v)
	case *ast.ForOfStatement:
		a.visitForInOf(v.Left, v.Right, v.Body, v)
	case *ast.SwitchStatement:
		a.visit(v.Discriminant)
		for _, c := range v.Cases {
			a.edgeIfWired(v, c)
			w := a.wire
			a.wire = false // case tests were never funcBodies-walked
			a.visit(c.Test)
			a.wire = w
			a.visitStmts(c, c.Consequent)
		}
	case *ast.TryStatement:
		if v.Block != nil {
			a.edgeIfWired(v, v.Block)
			a.visit(v.Block)
		}
		if v.Handler != nil {
			a.edgeIfWired(v, v.Handler)
			a.visit(v.Handler)
		}
		if v.Finalizer != nil {
			a.edgeIfWired(v, v.Finalizer)
			a.visit(v.Finalizer)
		}
	case *ast.CatchClause:
		sc := a.sc
		a.sc = a.newChild(v, false)
		if v.Param != nil {
			a.declarePattern(a.sc, v.Param, BindCatch, nil)
			w := a.wire
			a.wire = false // catch param defaults sit outside the region
			a.visitPatternDefaults(v.Param)
			a.wire = w
		}
		if v.Body != nil {
			// The handler body's statements chain off the block node; the
			// handler→block edge mirrors the old Try case.
			a.edgeIfWired(v, v.Body)
			a.collectLexical(v.Body.Body)
			a.visitStmts(v.Body, v.Body.Body)
		}
		a.sc = sc
	case *ast.ThrowStatement:
		w := a.wire
		a.wire = false // throw arguments had no stmt case in the old builder
		a.visit(v.Argument)
		a.wire = w
	case *ast.MemberExpression:
		a.visit(v.Object)
		if v.Computed {
			a.visit(v.Property)
		}
		// Non-computed property names are not variable references.
	case *ast.Property:
		if v.Computed {
			a.visit(v.Key)
		}
		a.visit(v.Value)
	case *ast.MethodDefinition:
		if v.Computed {
			a.visit(v.Key)
		}
		if v.Value != nil {
			a.visitFunction(v.Value, v.Value.Params, bodyNode(v.Value.Body))
		}
	case *ast.LabeledStatement:
		// The label is not a variable reference.
		a.edgeIfWired(v, v.Body)
		a.visit(v.Body)
	case *ast.WithStatement:
		w := a.wire
		a.wire = false // with objects were never funcBodies-walked
		a.visit(v.Object)
		a.wire = w
		a.edgeIfWired(v, v.Body)
		a.visit(v.Body)
	case *ast.BreakStatement, *ast.ContinueStatement:
		// Labels are not variable references.
	case *ast.ImportDeclaration:
		// Specifier locals were declared in pass 1; nothing to resolve.
	case *ast.ExportNamedDeclaration:
		if v.Declaration != nil {
			a.visit(v.Declaration)
		}
		for _, s := range v.Specifiers {
			if v.Source == nil {
				a.reference(s.Local)
			}
		}
	case *ast.ExportDefaultDeclaration:
		if cd, ok := v.Declaration.(*ast.ClassDeclaration); ok {
			// Export-default classes follow *expression* wiring: the old
			// builder ran funcBodies over the declaration, which descends
			// into a class declaration and wires its methods.
			a.visitClass(cd.SuperClass, cd.Body)
		} else {
			a.visit(v.Declaration)
		}
	case *ast.VariableDeclarator:
		// Unreachable from statement positions (VariableDeclaration handles
		// its declarators) but kept for direct calls, mirroring refspec.
		w := a.wire
		a.wire = false
		a.visitPatternDefaults(v.ID)
		a.wire = w
		a.visit(v.Init)
	case *ast.AssignmentExpression:
		a.visitAssignTarget(v.Left)
		a.visit(v.Right)
	case *ast.ConditionalExpression:
		// Ternaries participate in control flow wherever they appear — the
		// old builder collected them in a full-tree walk, so this is not
		// gated on the wire flag.
		a.edge(v, v.Consequent)
		a.edge(v, v.Alternate)
		a.visit(v.Test)
		a.visit(v.Consequent)
		a.visit(v.Alternate)
	default:
		ast.EachChild(n, a.descend)
	}
}

func bodyNode(b *ast.BlockStatement) ast.Node {
	if b == nil {
		return nil
	}
	return b
}

func kindOf(s string) BindingKind {
	switch s {
	case "let":
		return BindLet
	case "const":
		return BindConst
	default:
		return BindVar
	}
}

// visitVarDecl visits a variable declaration's defaults and initializers
// (declaration identifiers themselves were declared in pass 1 or by the
// for-statement case). wiredDefaults keeps the wire flag on for pattern
// defaults — true only for for-init declarations.
func (a *analyzer) visitVarDecl(v *ast.VariableDeclaration, wiredDefaults bool) {
	for _, d := range v.Declarations {
		if wiredDefaults {
			a.visitPatternDefaults(d.ID)
		} else {
			w := a.wire
			a.wire = false
			a.visitPatternDefaults(d.ID)
			a.wire = w
		}
		a.visit(d.Init)
	}
}

// visitFunction builds the function scope, declares params and the function
// expression's own name, hoists inner declarations, and visits the body.
// Wired functions get the fn→body edge and a chained body; parameters and
// arrow expression bodies are never wired (the old funcBodies walk stopped
// at the function node and only entered block bodies).
func (a *analyzer) visitFunction(fn ast.Node, params []ast.Node, body ast.Node) {
	sc := a.sc
	a.sc = a.newChild(fn, true)
	// A named function expression binds its own name inside itself.
	if fe, ok := fn.(*ast.FunctionExpression); ok && fe.ID != nil {
		a.declare(a.sc, fe.ID, BindFunction, nil)
	}
	for _, param := range params {
		a.declarePattern(a.sc, param, BindParam, nil)
	}
	w := a.wire
	a.wire = false
	for _, param := range params {
		a.visitPatternDefaults(param)
	}
	a.wire = w
	switch b := body.(type) {
	case *ast.BlockStatement:
		a.collectDecls(b.Body, a.sc)
		a.edgeIfWired(fn, b)
		a.visitStmts(b, b.Body)
	case nil:
	default:
		// Arrow expression body: never part of the control region.
		a.wire = false
		a.visit(b)
		a.wire = w
	}
	a.sc = sc
}

// visitClass visits a class's superclass and member bodies in the current
// wiring region (callers decide whether that region is live).
func (a *analyzer) visitClass(superClass ast.Node, body *ast.ClassBody) {
	a.visit(superClass)
	if body == nil {
		return
	}
	for _, member := range body.Body {
		switch m := member.(type) {
		case *ast.MethodDefinition:
			a.visit(m)
		case *ast.PropertyDefinition:
			if m.Computed {
				a.visit(m.Key)
			}
			a.visit(m.Value)
		}
	}
}

// visitForInOf builds the loop scope and visits a for-in/for-of statement.
// Left and right sit outside the control region (the old builder only wired
// the body); the body inherits the current region.
func (a *analyzer) visitForInOf(left, right, body ast.Node, owner ast.Node) {
	sc := a.sc
	a.sc = a.newChild(owner, false)
	w := a.wire
	a.wire = false
	if decl, ok := left.(*ast.VariableDeclaration); ok {
		if decl.Kind != "var" {
			for _, d := range decl.Declarations {
				a.declarePattern(a.sc, d.ID, kindOf(decl.Kind), nil)
			}
		}
		// var-declared loop variables were hoisted in pass 1; the pattern
		// itself is not visited as references (mirroring refspec).
	} else {
		a.visitAssignTarget(left)
	}
	a.visit(right)
	a.wire = w
	a.edgeIfWired(owner, body)
	a.visit(body)
	a.edgeIfWired(body, owner)
	a.sc = sc
}

// visitAssignTarget resolves references in an assignment target (which may
// be a pattern containing expressions).
func (a *analyzer) visitAssignTarget(n ast.Node) {
	switch v := n.(type) {
	case *ast.Identifier:
		a.reference(v)
	case *ast.MemberExpression:
		a.visit(v)
	case *ast.ArrayPattern:
		for _, el := range v.Elements {
			if el != nil {
				a.visitAssignTarget(el)
			}
		}
	case *ast.ObjectPattern:
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.Property:
				if pv.Computed {
					a.visit(pv.Key)
				}
				a.visitAssignTarget(pv.Value)
			case *ast.RestElement:
				a.visitAssignTarget(pv.Argument)
			}
		}
	case *ast.AssignmentPattern:
		a.visitAssignTarget(v.Left)
		a.visit(v.Right)
	case *ast.RestElement:
		a.visitAssignTarget(v.Argument)
	default:
		a.visit(n)
	}
}

// visitPatternDefaults resolves references inside pattern default values
// and computed keys (the bound identifiers themselves are declarations).
func (a *analyzer) visitPatternDefaults(pat ast.Node) {
	switch v := pat.(type) {
	case *ast.ArrayPattern:
		for _, el := range v.Elements {
			if el != nil {
				a.visitPatternDefaults(el)
			}
		}
	case *ast.ObjectPattern:
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.Property:
				if pv.Computed {
					a.visit(pv.Key)
				}
				a.visitPatternDefaults(pv.Value)
			case *ast.RestElement:
				a.visitPatternDefaults(pv.Argument)
			}
		}
	case *ast.AssignmentPattern:
		a.visitPatternDefaults(v.Left)
		a.visit(v.Right)
	case *ast.RestElement:
		a.visitPatternDefaults(v.Argument)
	}
}

// ---------------------------------------------------------------------------
// Declaration hoisting (pass 1, per scope)
// ---------------------------------------------------------------------------

// collectDecls hoists declarations in a statement list into sc: `var` (into
// function scope via declare), function declarations, and lexical let/const
// and class declarations in the current block.
func (a *analyzer) collectDecls(stmts []ast.Node, sc *Scope) {
	for _, stmt := range stmts {
		a.collectDecl(stmt, sc)
	}
}

func (a *analyzer) collectDecl(stmt ast.Node, sc *Scope) {
	switch v := stmt.(type) {
	case *ast.VariableDeclaration:
		kind := kindOf(v.Kind)
		for _, d := range v.Declarations {
			a.declarePattern(sc, d.ID, kind, d.Init)
		}
	case *ast.FunctionDeclaration:
		if v.ID != nil {
			a.declare(sc, v.ID, BindFunction, nil)
		}
	case *ast.ClassDeclaration:
		if v.ID != nil {
			a.declare(sc, v.ID, BindClass, nil)
		}
	case *ast.ImportDeclaration:
		for _, s := range v.Specifiers {
			switch sp := s.(type) {
			case *ast.ImportSpecifier:
				a.declare(sc, sp.Local, BindImport, nil)
			case *ast.ImportDefaultSpecifier:
				a.declare(sc, sp.Local, BindImport, nil)
			case *ast.ImportNamespaceSpecifier:
				a.declare(sc, sp.Local, BindImport, nil)
			}
		}
	case *ast.ExportNamedDeclaration:
		if v.Declaration != nil {
			a.collectDecl(v.Declaration, sc)
		}
	case *ast.ExportDefaultDeclaration:
		if fn, ok := v.Declaration.(*ast.FunctionDeclaration); ok && fn.ID != nil {
			a.declare(sc, fn.ID, BindFunction, nil)
		}
	// `var` declarations nested inside blocks/loops hoist to the function
	// scope; recurse into statement containers (but not into nested
	// functions, whose vars belong to them).
	case *ast.BlockStatement:
		a.collectVarsOnly(v.Body, sc)
	case *ast.IfStatement:
		a.collectVarsOnlyOne(v.Consequent, sc)
		a.collectVarsOnlyOne(v.Alternate, sc)
	case *ast.ForStatement:
		a.collectVarsOnlyOne(v.Init, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.ForInStatement:
		a.collectVarsOnlyOne(v.Left, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.ForOfStatement:
		a.collectVarsOnlyOne(v.Left, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.WhileStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.DoWhileStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.TryStatement:
		if v.Block != nil {
			a.collectVarsOnly(v.Block.Body, sc)
		}
		if v.Handler != nil && v.Handler.Body != nil {
			a.collectVarsOnly(v.Handler.Body.Body, sc)
		}
		if v.Finalizer != nil {
			a.collectVarsOnly(v.Finalizer.Body, sc)
		}
	case *ast.SwitchStatement:
		for _, c := range v.Cases {
			a.collectVarsOnly(c.Consequent, sc)
		}
	case *ast.LabeledStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.WithStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	}
}

// collectVarsOnly hoists only `var` and function declarations from nested
// statements (lexical declarations stay in their own block scope).
func (a *analyzer) collectVarsOnly(stmts []ast.Node, sc *Scope) {
	for _, s := range stmts {
		a.collectVarsOnlyOne(s, sc)
	}
}

func (a *analyzer) collectVarsOnlyOne(stmt ast.Node, sc *Scope) {
	if stmt == nil {
		return
	}
	switch v := stmt.(type) {
	case *ast.VariableDeclaration:
		if v.Kind == "var" {
			for _, d := range v.Declarations {
				a.declarePattern(sc, d.ID, BindVar, d.Init)
			}
		}
	case *ast.FunctionDeclaration, *ast.ClassDeclaration, *ast.ImportDeclaration:
		// Nested function/class declarations are block-scoped; they are
		// declared by collectLexical when their block scope is built.
	case *ast.BlockStatement:
		a.collectVarsOnly(v.Body, sc)
	case *ast.IfStatement:
		a.collectVarsOnlyOne(v.Consequent, sc)
		a.collectVarsOnlyOne(v.Alternate, sc)
	case *ast.ForStatement:
		a.collectVarsOnlyOne(v.Init, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.ForInStatement:
		a.collectVarsOnlyOne(v.Left, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.ForOfStatement:
		a.collectVarsOnlyOne(v.Left, sc)
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.WhileStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.DoWhileStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.TryStatement:
		if v.Block != nil {
			a.collectVarsOnly(v.Block.Body, sc)
		}
		if v.Handler != nil && v.Handler.Body != nil {
			a.collectVarsOnly(v.Handler.Body.Body, sc)
		}
		if v.Finalizer != nil {
			a.collectVarsOnly(v.Finalizer.Body, sc)
		}
	case *ast.SwitchStatement:
		for _, c := range v.Cases {
			a.collectVarsOnly(c.Consequent, sc)
		}
	case *ast.LabeledStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	case *ast.WithStatement:
		a.collectVarsOnlyOne(v.Body, sc)
	}
}

// declarePattern declares every identifier bound by a binding pattern.
func (a *analyzer) declarePattern(sc *Scope, pat ast.Node, kind BindingKind, init ast.Node) {
	switch v := pat.(type) {
	case *ast.Identifier:
		a.declare(sc, v, kind, init)
	case *ast.ArrayPattern:
		for _, el := range v.Elements {
			if el != nil {
				a.declarePattern(sc, el, kind, nil)
			}
		}
	case *ast.ObjectPattern:
		for _, prop := range v.Properties {
			switch pv := prop.(type) {
			case *ast.Property:
				a.declarePattern(sc, pv.Value, kind, nil)
			case *ast.RestElement:
				a.declarePattern(sc, pv.Argument, kind, nil)
			}
		}
	case *ast.AssignmentPattern:
		a.declarePattern(sc, v.Left, kind, nil)
	case *ast.RestElement:
		a.declarePattern(sc, v.Argument, kind, nil)
	}
}

// collectLexical declares let/const/class/function bindings of a block into
// its scope (vars were hoisted already). The current scope (a.sc) is the
// block's scope.
func (a *analyzer) collectLexical(stmts []ast.Node) {
	for _, stmt := range stmts {
		switch v := stmt.(type) {
		case *ast.VariableDeclaration:
			if v.Kind != "var" {
				for _, d := range v.Declarations {
					a.declarePattern(a.sc, d.ID, kindOf(v.Kind), d.Init)
				}
			}
		case *ast.FunctionDeclaration:
			if v.ID != nil {
				a.declare(a.sc, v.ID, BindFunction, nil)
			}
		case *ast.ClassDeclaration:
			if v.ID != nil {
				a.declare(a.sc, v.ID, BindClass, nil)
			}
		}
	}
}
