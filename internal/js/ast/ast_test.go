package ast

import "testing"

func TestNodeTypeNames(t *testing.T) {
	// The feature space is keyed on Esprima node type names; these strings
	// are load-bearing and must never drift.
	tests := map[Node]string{
		&Program{}:                  "Program",
		&ExpressionStatement{}:      "ExpressionStatement",
		&BlockStatement{}:           "BlockStatement",
		&EmptyStatement{}:           "EmptyStatement",
		&DebuggerStatement{}:        "DebuggerStatement",
		&WithStatement{}:            "WithStatement",
		&ReturnStatement{}:          "ReturnStatement",
		&LabeledStatement{}:         "LabeledStatement",
		&BreakStatement{}:           "BreakStatement",
		&ContinueStatement{}:        "ContinueStatement",
		&IfStatement{}:              "IfStatement",
		&SwitchStatement{}:          "SwitchStatement",
		&SwitchCase{}:               "SwitchCase",
		&ThrowStatement{}:           "ThrowStatement",
		&TryStatement{}:             "TryStatement",
		&CatchClause{}:              "CatchClause",
		&WhileStatement{}:           "WhileStatement",
		&DoWhileStatement{}:         "DoWhileStatement",
		&ForStatement{}:             "ForStatement",
		&ForInStatement{}:           "ForInStatement",
		&ForOfStatement{}:           "ForOfStatement",
		&FunctionDeclaration{}:      "FunctionDeclaration",
		&VariableDeclaration{}:      "VariableDeclaration",
		&VariableDeclarator{}:       "VariableDeclarator",
		&ClassDeclaration{}:         "ClassDeclaration",
		&ClassBody{}:                "ClassBody",
		&PropertyDefinition{}:       "PropertyDefinition",
		&MethodDefinition{}:         "MethodDefinition",
		&ImportDeclaration{}:        "ImportDeclaration",
		&ImportSpecifier{}:          "ImportSpecifier",
		&ImportDefaultSpecifier{}:   "ImportDefaultSpecifier",
		&ImportNamespaceSpecifier{}: "ImportNamespaceSpecifier",
		&ExportNamedDeclaration{}:   "ExportNamedDeclaration",
		&ExportSpecifier{}:          "ExportSpecifier",
		&ExportDefaultDeclaration{}: "ExportDefaultDeclaration",
		&ExportAllDeclaration{}:     "ExportAllDeclaration",
		&Identifier{}:               "Identifier",
		&Literal{}:                  "Literal",
		&ThisExpression{}:           "ThisExpression",
		&Super{}:                    "Super",
		&ArrayExpression{}:          "ArrayExpression",
		&ObjectExpression{}:         "ObjectExpression",
		&Property{}:                 "Property",
		&FunctionExpression{}:       "FunctionExpression",
		&ArrowFunctionExpression{}:  "ArrowFunctionExpression",
		&ClassExpression{}:          "ClassExpression",
		&TemplateLiteral{}:          "TemplateLiteral",
		&TemplateElement{}:          "TemplateElement",
		&TaggedTemplateExpression{}: "TaggedTemplateExpression",
		&MemberExpression{}:         "MemberExpression",
		&CallExpression{}:           "CallExpression",
		&NewExpression{}:            "NewExpression",
		&SpreadElement{}:            "SpreadElement",
		&UnaryExpression{}:          "UnaryExpression",
		&UpdateExpression{}:         "UpdateExpression",
		&BinaryExpression{}:         "BinaryExpression",
		&LogicalExpression{}:        "LogicalExpression",
		&AssignmentExpression{}:     "AssignmentExpression",
		&ConditionalExpression{}:    "ConditionalExpression",
		&SequenceExpression{}:       "SequenceExpression",
		&RestElement{}:              "RestElement",
		&AssignmentPattern{}:        "AssignmentPattern",
		&ArrayPattern{}:             "ArrayPattern",
		&ObjectPattern{}:            "ObjectPattern",
		&AwaitExpression{}:          "AwaitExpression",
		&YieldExpression{}:          "YieldExpression",
		&MetaProperty{}:             "MetaProperty",
	}
	if len(tests) != int(KindCount)-1 {
		t.Fatalf("pinned %d names, the kind table has %d", len(tests), KindCount-1)
	}
	for node, want := range tests {
		if got := node.NodeKind().String(); got != want {
			t.Errorf("%T.NodeKind().String() = %q, want %q", node, got, want)
		}
	}
}

func TestChildrenSkipNil(t *testing.T) {
	ifStmt := &IfStatement{
		Test:       NewIdentifier("a"),
		Consequent: &BlockStatement{},
		// Alternate nil
	}
	kids := Children(ifStmt)
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	for _, k := range kids {
		if k == nil {
			t.Fatal("nil child leaked")
		}
	}
}

func TestChildrenTemplateInterleaving(t *testing.T) {
	tpl := &TemplateLiteral{
		Quasis: []*TemplateElement{
			{Raw: "a"}, {Raw: "b"}, {Raw: "c", Tail: true},
		},
		Expressions: []Node{NewIdentifier("x"), NewIdentifier("y")},
	}
	kids := Children(tpl)
	want := []string{"TemplateElement", "Identifier", "TemplateElement", "Identifier", "TemplateElement"}
	if len(kids) != len(want) {
		t.Fatalf("children = %d, want %d", len(kids), len(want))
	}
	for i, k := range kids {
		if k.NodeKind().String() != want[i] {
			t.Fatalf("child %d = %s, want %s", i, k.NodeKind().String(), want[i])
		}
	}
}

func TestClassifiers(t *testing.T) {
	if !IsConditionalControlFlow(&IfStatement{}) || !IsConditionalControlFlow(&ConditionalExpression{}) {
		t.Fatal("conditional classifier broken")
	}
	if IsConditionalControlFlow(&ExpressionStatement{}) {
		t.Fatal("expression statement is not conditional control flow")
	}
	if !IsFunction(&ArrowFunctionExpression{}) || IsFunction(&CallExpression{}) {
		t.Fatal("function classifier broken")
	}
	if !IsCallLike(&CallExpression{}) || !IsCallLike(&TaggedTemplateExpression{}) {
		t.Fatal("call classifier broken")
	}
	if !IsStatement(&VariableDeclaration{}) || IsStatement(&BinaryExpression{}) {
		t.Fatal("statement classifier broken")
	}
}

func TestLiteralConstructors(t *testing.T) {
	if NewString("x").Kind != LiteralString {
		t.Fatal("NewString kind")
	}
	if NewNumber(1).Kind != LiteralNumber {
		t.Fatal("NewNumber kind")
	}
	if NewBool(true).Kind != LiteralBoolean || !NewBool(true).Bool {
		t.Fatal("NewBool kind")
	}
}

func TestRangeAccessors(t *testing.T) {
	id := NewIdentifier("x")
	r := Range{Start: 3, End: 4}
	id.SetRange(r)
	if id.Range() != r {
		t.Fatal("range round trip failed")
	}
}
