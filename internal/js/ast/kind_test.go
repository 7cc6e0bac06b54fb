package ast

import (
	"reflect"
	"testing"
)

// allNodes instantiates one zero value of every concrete node type. New node
// types must be added here so the kind/type lockstep tests cover them;
// TestKindTableComplete fails if the table and this list drift apart.
func allNodes() []Node {
	return []Node{
		&Program{}, &ExpressionStatement{}, &BlockStatement{},
		&EmptyStatement{}, &DebuggerStatement{}, &WithStatement{},
		&ReturnStatement{}, &LabeledStatement{}, &BreakStatement{},
		&ContinueStatement{}, &IfStatement{}, &SwitchStatement{},
		&SwitchCase{}, &ThrowStatement{}, &TryStatement{}, &CatchClause{},
		&WhileStatement{}, &DoWhileStatement{}, &ForStatement{},
		&ForInStatement{}, &ForOfStatement{}, &FunctionDeclaration{},
		&VariableDeclaration{}, &VariableDeclarator{}, &ClassDeclaration{},
		&ClassBody{}, &PropertyDefinition{}, &MethodDefinition{},
		&ImportDeclaration{}, &ImportSpecifier{}, &ImportDefaultSpecifier{},
		&ImportNamespaceSpecifier{}, &ExportNamedDeclaration{},
		&ExportSpecifier{}, &ExportDefaultDeclaration{},
		&ExportAllDeclaration{}, &Identifier{}, &Literal{},
		&ThisExpression{}, &Super{}, &ArrayExpression{}, &ObjectExpression{},
		&Property{}, &FunctionExpression{}, &ArrowFunctionExpression{},
		&ClassExpression{}, &TemplateLiteral{}, &TemplateElement{},
		&TaggedTemplateExpression{}, &MemberExpression{}, &CallExpression{},
		&NewExpression{}, &SpreadElement{}, &UnaryExpression{},
		&UpdateExpression{}, &BinaryExpression{}, &LogicalExpression{},
		&AssignmentExpression{}, &ConditionalExpression{},
		&SequenceExpression{}, &RestElement{}, &AssignmentPattern{},
		&ArrayPattern{}, &ObjectPattern{}, &AwaitExpression{},
		&YieldExpression{}, &MetaProperty{},
	}
}

// TestKindMatchesType locks each node's kind to its Go type: the kind's
// ESTree name is the struct's name, so the one name table cannot drift from
// the types it names.
func TestKindMatchesType(t *testing.T) {
	for _, n := range allNodes() {
		if got, want := n.NodeKind().String(), reflect.TypeOf(n).Elem().Name(); got != want {
			t.Errorf("%T.NodeKind().String() = %q, want %q", n, got, want)
		}
		if n.NodeKind() == KindInvalid {
			t.Errorf("%T has KindInvalid", n)
		}
	}
}

// TestKindTableComplete checks that every kind constant is claimed by
// exactly one node type and that invalid kinds have no name.
func TestKindTableComplete(t *testing.T) {
	nodes := allNodes()
	if got, want := len(nodes), int(KindCount)-1; got != want {
		t.Fatalf("allNodes covers %d types, kind table has %d", got, want)
	}
	seen := make(map[Kind]Node, len(nodes))
	for _, n := range nodes {
		k := n.NodeKind()
		if prev, dup := seen[k]; dup {
			t.Errorf("kind %d claimed by both %T and %T", k, prev, n)
		}
		seen[k] = n
	}
	if KindInvalid.String() != "" || Kind(KindCount+7).String() != "" {
		t.Error("invalid kinds must stringify to empty")
	}
}

// TestKindPredicateParity pins the table-driven predicates to the original
// type-switch semantics for every node type.
func TestKindPredicateParity(t *testing.T) {
	stmt := map[Kind]bool{}
	for _, k := range []Kind{
		KindProgram, KindExpressionStatement, KindBlockStatement,
		KindEmptyStatement, KindDebuggerStatement, KindWithStatement,
		KindReturnStatement, KindLabeledStatement, KindBreakStatement,
		KindContinueStatement, KindIfStatement, KindSwitchStatement,
		KindSwitchCase, KindThrowStatement, KindTryStatement,
		KindWhileStatement, KindDoWhileStatement, KindForStatement,
		KindForInStatement, KindForOfStatement, KindFunctionDeclaration,
		KindVariableDeclaration, KindClassDeclaration, KindImportDeclaration,
		KindExportNamedDeclaration, KindExportDefaultDeclaration,
		KindExportAllDeclaration,
	} {
		stmt[k] = true
	}
	for _, n := range allNodes() {
		if got, want := IsStatement(n), stmt[n.NodeKind()]; got != want {
			t.Errorf("IsStatement(%T) = %v, want %v", n, got, want)
		}
	}
	if IsStatement(nil) || IsFunction(nil) || IsCallLike(nil) || IsConditionalControlFlow(nil) {
		t.Error("predicates must reject nil")
	}
}
