package ast

// Kind is a small-integer identifier for a node's ESTree type, and the one
// place each type's name is spelled: String returns the name the paper's
// Esprima pipeline uses ("CallExpression", ...), which keys the n-gram
// feature buckets. Traversal-heavy consumers (feature extraction, the
// static-analysis dispatcher, the flow builder) switch and index on kinds: a
// Kind fits in two bytes, compares in one instruction, and indexes dense
// tables.
//
// The //jslint:enum directive marks the constant set as closed: the jslint
// kind-exhaustive analyzer requires every switch and every dense
// [KindCount]-sized table over Kind to cover all kinds or carry an explicit
// default, keeping dispatch sites in lockstep with kindNames when a kind is
// added.
//
//jslint:enum
type Kind uint16

// Node kinds. KindInvalid is the zero value so an unset kind is never
// mistaken for Program. The order is stable within a process run but is NOT a
// serialization format: persistent artifacts (models, diagnostics) keep using
// the type-name strings.
const (
	KindInvalid Kind = iota
	KindProgram
	KindExpressionStatement
	KindBlockStatement
	KindEmptyStatement
	KindDebuggerStatement
	KindWithStatement
	KindReturnStatement
	KindLabeledStatement
	KindBreakStatement
	KindContinueStatement
	KindIfStatement
	KindSwitchStatement
	KindSwitchCase
	KindThrowStatement
	KindTryStatement
	KindCatchClause
	KindWhileStatement
	KindDoWhileStatement
	KindForStatement
	KindForInStatement
	KindForOfStatement
	KindFunctionDeclaration
	KindVariableDeclaration
	KindVariableDeclarator
	KindClassDeclaration
	KindClassBody
	KindPropertyDefinition
	KindMethodDefinition
	KindImportDeclaration
	KindImportSpecifier
	KindImportDefaultSpecifier
	KindImportNamespaceSpecifier
	KindExportNamedDeclaration
	KindExportSpecifier
	KindExportDefaultDeclaration
	KindExportAllDeclaration
	KindIdentifier
	KindLiteral
	KindThisExpression
	KindSuper
	KindArrayExpression
	KindObjectExpression
	KindProperty
	KindFunctionExpression
	KindArrowFunctionExpression
	KindClassExpression
	KindTemplateLiteral
	KindTemplateElement
	KindTaggedTemplateExpression
	KindMemberExpression
	KindCallExpression
	KindNewExpression
	KindSpreadElement
	KindUnaryExpression
	KindUpdateExpression
	KindBinaryExpression
	KindLogicalExpression
	KindAssignmentExpression
	KindConditionalExpression
	KindSequenceExpression
	KindRestElement
	KindAssignmentPattern
	KindArrayPattern
	KindObjectPattern
	KindAwaitExpression
	KindYieldExpression
	KindMetaProperty

	// KindCount is the size needed for a dense kind-indexed table.
	KindCount
)

// kindNames maps each kind to its ESTree type name.
var kindNames = [KindCount]string{
	KindInvalid:                  "",
	KindProgram:                  "Program",
	KindExpressionStatement:      "ExpressionStatement",
	KindBlockStatement:           "BlockStatement",
	KindEmptyStatement:           "EmptyStatement",
	KindDebuggerStatement:        "DebuggerStatement",
	KindWithStatement:            "WithStatement",
	KindReturnStatement:          "ReturnStatement",
	KindLabeledStatement:         "LabeledStatement",
	KindBreakStatement:           "BreakStatement",
	KindContinueStatement:        "ContinueStatement",
	KindIfStatement:              "IfStatement",
	KindSwitchStatement:          "SwitchStatement",
	KindSwitchCase:               "SwitchCase",
	KindThrowStatement:           "ThrowStatement",
	KindTryStatement:             "TryStatement",
	KindCatchClause:              "CatchClause",
	KindWhileStatement:           "WhileStatement",
	KindDoWhileStatement:         "DoWhileStatement",
	KindForStatement:             "ForStatement",
	KindForInStatement:           "ForInStatement",
	KindForOfStatement:           "ForOfStatement",
	KindFunctionDeclaration:      "FunctionDeclaration",
	KindVariableDeclaration:      "VariableDeclaration",
	KindVariableDeclarator:       "VariableDeclarator",
	KindClassDeclaration:         "ClassDeclaration",
	KindClassBody:                "ClassBody",
	KindPropertyDefinition:       "PropertyDefinition",
	KindMethodDefinition:         "MethodDefinition",
	KindImportDeclaration:        "ImportDeclaration",
	KindImportSpecifier:          "ImportSpecifier",
	KindImportDefaultSpecifier:   "ImportDefaultSpecifier",
	KindImportNamespaceSpecifier: "ImportNamespaceSpecifier",
	KindExportNamedDeclaration:   "ExportNamedDeclaration",
	KindExportSpecifier:          "ExportSpecifier",
	KindExportDefaultDeclaration: "ExportDefaultDeclaration",
	KindExportAllDeclaration:     "ExportAllDeclaration",
	KindIdentifier:               "Identifier",
	KindLiteral:                  "Literal",
	KindThisExpression:           "ThisExpression",
	KindSuper:                    "Super",
	KindArrayExpression:          "ArrayExpression",
	KindObjectExpression:         "ObjectExpression",
	KindProperty:                 "Property",
	KindFunctionExpression:       "FunctionExpression",
	KindArrowFunctionExpression:  "ArrowFunctionExpression",
	KindClassExpression:          "ClassExpression",
	KindTemplateLiteral:          "TemplateLiteral",
	KindTemplateElement:          "TemplateElement",
	KindTaggedTemplateExpression: "TaggedTemplateExpression",
	KindMemberExpression:         "MemberExpression",
	KindCallExpression:           "CallExpression",
	KindNewExpression:            "NewExpression",
	KindSpreadElement:            "SpreadElement",
	KindUnaryExpression:          "UnaryExpression",
	KindUpdateExpression:         "UpdateExpression",
	KindBinaryExpression:         "BinaryExpression",
	KindLogicalExpression:        "LogicalExpression",
	KindAssignmentExpression:     "AssignmentExpression",
	KindConditionalExpression:    "ConditionalExpression",
	KindSequenceExpression:       "SequenceExpression",
	KindRestElement:              "RestElement",
	KindAssignmentPattern:        "AssignmentPattern",
	KindArrayPattern:             "ArrayPattern",
	KindObjectPattern:            "ObjectPattern",
	KindAwaitExpression:          "AwaitExpression",
	KindYieldExpression:          "YieldExpression",
	KindMetaProperty:             "MetaProperty",
}

// String returns the kind's ESTree type name ("" for KindInvalid).
func (k Kind) String() string {
	if k >= KindCount {
		return ""
	}
	return kindNames[k]
}

// NodeKind methods. One per node type, returning the interned constant; all
// are valid on nil receivers (they touch no fields), which is how New finds
// a node type's slab. The method is named NodeKind rather than Kind because
// several nodes carry an ESTree-mandated Kind field (VariableDeclaration,
// Property, MethodDefinition) or a discriminator of their own (Literal).

func (*Program) NodeKind() Kind                  { return KindProgram }
func (*ExpressionStatement) NodeKind() Kind      { return KindExpressionStatement }
func (*BlockStatement) NodeKind() Kind           { return KindBlockStatement }
func (*EmptyStatement) NodeKind() Kind           { return KindEmptyStatement }
func (*DebuggerStatement) NodeKind() Kind        { return KindDebuggerStatement }
func (*WithStatement) NodeKind() Kind            { return KindWithStatement }
func (*ReturnStatement) NodeKind() Kind          { return KindReturnStatement }
func (*LabeledStatement) NodeKind() Kind         { return KindLabeledStatement }
func (*BreakStatement) NodeKind() Kind           { return KindBreakStatement }
func (*ContinueStatement) NodeKind() Kind        { return KindContinueStatement }
func (*IfStatement) NodeKind() Kind              { return KindIfStatement }
func (*SwitchStatement) NodeKind() Kind          { return KindSwitchStatement }
func (*SwitchCase) NodeKind() Kind               { return KindSwitchCase }
func (*ThrowStatement) NodeKind() Kind           { return KindThrowStatement }
func (*TryStatement) NodeKind() Kind             { return KindTryStatement }
func (*CatchClause) NodeKind() Kind              { return KindCatchClause }
func (*WhileStatement) NodeKind() Kind           { return KindWhileStatement }
func (*DoWhileStatement) NodeKind() Kind         { return KindDoWhileStatement }
func (*ForStatement) NodeKind() Kind             { return KindForStatement }
func (*ForInStatement) NodeKind() Kind           { return KindForInStatement }
func (*ForOfStatement) NodeKind() Kind           { return KindForOfStatement }
func (*FunctionDeclaration) NodeKind() Kind      { return KindFunctionDeclaration }
func (*VariableDeclaration) NodeKind() Kind      { return KindVariableDeclaration }
func (*VariableDeclarator) NodeKind() Kind       { return KindVariableDeclarator }
func (*ClassDeclaration) NodeKind() Kind         { return KindClassDeclaration }
func (*ClassBody) NodeKind() Kind                { return KindClassBody }
func (*PropertyDefinition) NodeKind() Kind       { return KindPropertyDefinition }
func (*MethodDefinition) NodeKind() Kind         { return KindMethodDefinition }
func (*ImportDeclaration) NodeKind() Kind        { return KindImportDeclaration }
func (*ImportSpecifier) NodeKind() Kind          { return KindImportSpecifier }
func (*ImportDefaultSpecifier) NodeKind() Kind   { return KindImportDefaultSpecifier }
func (*ImportNamespaceSpecifier) NodeKind() Kind { return KindImportNamespaceSpecifier }
func (*ExportNamedDeclaration) NodeKind() Kind   { return KindExportNamedDeclaration }
func (*ExportSpecifier) NodeKind() Kind          { return KindExportSpecifier }
func (*ExportDefaultDeclaration) NodeKind() Kind { return KindExportDefaultDeclaration }
func (*ExportAllDeclaration) NodeKind() Kind     { return KindExportAllDeclaration }
func (*Identifier) NodeKind() Kind               { return KindIdentifier }
func (*Literal) NodeKind() Kind                  { return KindLiteral }
func (*ThisExpression) NodeKind() Kind           { return KindThisExpression }
func (*Super) NodeKind() Kind                    { return KindSuper }
func (*ArrayExpression) NodeKind() Kind          { return KindArrayExpression }
func (*ObjectExpression) NodeKind() Kind         { return KindObjectExpression }
func (*Property) NodeKind() Kind                 { return KindProperty }
func (*FunctionExpression) NodeKind() Kind       { return KindFunctionExpression }
func (*ArrowFunctionExpression) NodeKind() Kind  { return KindArrowFunctionExpression }
func (*ClassExpression) NodeKind() Kind          { return KindClassExpression }
func (*TemplateLiteral) NodeKind() Kind          { return KindTemplateLiteral }
func (*TemplateElement) NodeKind() Kind          { return KindTemplateElement }
func (*TaggedTemplateExpression) NodeKind() Kind { return KindTaggedTemplateExpression }
func (*MemberExpression) NodeKind() Kind         { return KindMemberExpression }
func (*CallExpression) NodeKind() Kind           { return KindCallExpression }
func (*NewExpression) NodeKind() Kind            { return KindNewExpression }
func (*SpreadElement) NodeKind() Kind            { return KindSpreadElement }
func (*UnaryExpression) NodeKind() Kind          { return KindUnaryExpression }
func (*UpdateExpression) NodeKind() Kind         { return KindUpdateExpression }
func (*BinaryExpression) NodeKind() Kind         { return KindBinaryExpression }
func (*LogicalExpression) NodeKind() Kind        { return KindLogicalExpression }
func (*AssignmentExpression) NodeKind() Kind     { return KindAssignmentExpression }
func (*ConditionalExpression) NodeKind() Kind    { return KindConditionalExpression }
func (*SequenceExpression) NodeKind() Kind       { return KindSequenceExpression }
func (*RestElement) NodeKind() Kind              { return KindRestElement }
func (*AssignmentPattern) NodeKind() Kind        { return KindAssignmentPattern }
func (*ArrayPattern) NodeKind() Kind             { return KindArrayPattern }
func (*ObjectPattern) NodeKind() Kind            { return KindObjectPattern }
func (*AwaitExpression) NodeKind() Kind          { return KindAwaitExpression }
func (*YieldExpression) NodeKind() Kind          { return KindYieldExpression }
func (*MetaProperty) NodeKind() Kind             { return KindMetaProperty }

// Kind-indexed predicate tables. The bool-array lookups below replace the
// type switches the hot paths used to pay per node; the type-switch versions
// in children.go now delegate here, so the two stay in lockstep by
// construction.

// statementKinds marks the statement-level kinds (see IsStatement).
var statementKinds = makeKindSet(
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
)

// conditionalControlFlowKinds marks the paper's conditional control-flow
// kinds (see IsConditionalControlFlow).
var conditionalControlFlowKinds = makeKindSet(
	KindDoWhileStatement, KindWhileStatement, KindForStatement,
	KindForOfStatement, KindForInStatement, KindIfStatement,
	KindConditionalExpression, KindTryStatement, KindSwitchStatement,
)

// functionKinds marks the function kinds (see IsFunction).
var functionKinds = makeKindSet(
	KindArrowFunctionExpression, KindFunctionExpression,
	KindFunctionDeclaration,
)

// callLikeKinds marks calls and tagged templates (see IsCallLike).
var callLikeKinds = makeKindSet(KindCallExpression, KindTaggedTemplateExpression)

func makeKindSet(kinds ...Kind) [KindCount]bool {
	var set [KindCount]bool
	for _, k := range kinds {
		set[k] = true
	}
	return set
}
