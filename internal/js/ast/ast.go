// Package ast defines an Esprima-compatible abstract syntax tree for
// JavaScript. Node type names follow the ESTree specification so that
// downstream feature extraction operates on the same syntactic vocabulary as
// the paper's Esprima-based pipeline (node types such as "MemberExpression",
// "CallExpression", "ConditionalExpression", ...).
//
// Positions follow go/token: a node stores only the byte Range it covers,
// and Lines, a per-file table of line starts, resolves an offset to its
// line and column when something (a reported diagnostic or a parse error)
// needs them. Offsets are int32; the parser rejects sources of 2 GiB or
// more.
package ast

// Pos is a byte offset plus line/column location in the original source,
// as Lines resolves it for a reported diagnostic or a parse error. Nodes,
// tokens and comments carry only offsets. The JSON tags keep
// serialized diagnostics (internal/analysis) in one consistent lowercase
// style.
type Pos struct {
	Offset int32 `json:"offset"` // byte offset, 0-based
	Line   int32 `json:"line"`   // 1-based
	Column int32 `json:"column"` // 0-based, in bytes
}

// Span is the half-open source range [Start, End) with line and column at
// both ends.
type Span struct {
	Start Pos `json:"start"`
	End   Pos `json:"end"`
}

// Range is the half-open byte range [Start, End) covered by a node. The
// parser rejects sources of 2 GiB or more, so an offset always fits.
type Range struct {
	Start, End int32
}

// Node is implemented by every AST node.
type Node interface {
	// NodeKind returns the interned node kind; its String is the ESTree
	// node type name, e.g. "CallExpression". (Named NodeKind, not Kind,
	// because ESTree mandates a Kind field on several node types.)
	NodeKind() Kind
	// Range returns the byte range of the node in its source; Lines.Span
	// turns it into lines and columns.
	Range() Range
	// NodeID returns the dense pre-order ID assigned by StampIDs (see
	// nodeid.go). It is 0 for the Program root and for nodes created after
	// the tree was stamped; dense consumers rely on the root owning slot 0.
	// (Named NodeID, not ID, because ESTree mandates an ID field on several
	// node types — the same collision that named NodeKind.)
	NodeID() NodeID
	// SetNodeID records the node's dense ID. StampIDs is the intended
	// caller; stamping by hand breaks the density and pre-order invariants
	// every NodeID-indexed table depends on.
	SetNodeID(NodeID)
}

// base carries the byte range and dense ID shared by all concrete nodes:
// 12 bytes, so an Identifier is its name plus 16.
type base struct {
	rng Range
	id  NodeID
}

func (b *base) Range() Range { return b.rng }

// SetRange records the byte range. It is exported through concrete types so
// the parser and transformers can stamp locations.
func (b *base) SetRange(r Range) { b.rng = r }

// NodeID returns the node's dense pre-order ID (0 until StampIDs ran).
func (b *base) NodeID() NodeID { return b.id }

// SetNodeID records the node's dense pre-order ID.
func (b *base) SetNodeID(id NodeID) { b.id = id }

// ---------------------------------------------------------------------------
// Program and statements
// ---------------------------------------------------------------------------

// Program is the AST root.
type Program struct {
	base
	Body []Node // statements and declarations
	// NodeCount is the number of nodes in the tree, set by StampIDs (zero
	// until the tree is stamped). NodeID-indexed consumers pre-size their
	// dense tables from it; a non-zero count is their license to trust the
	// stamped IDs (see the ownership rules in DESIGN.md).
	NodeCount uint32
}

// ExpressionStatement wraps an expression used as a statement.
type ExpressionStatement struct {
	base
	Expression Node
	Directive  string // non-empty for directive prologues such as "use strict"
}

// BlockStatement is a `{ ... }` statement list.
type BlockStatement struct {
	base
	Body []Node
}

// EmptyStatement is a lone semicolon.
type EmptyStatement struct {
	base
}

// DebuggerStatement is the `debugger` statement.
type DebuggerStatement struct {
	base
}

// WithStatement is the (deprecated) `with (obj) stmt` construct.
type WithStatement struct {
	base
	Object Node
	Body   Node
}

// ReturnStatement returns from a function, optionally with a value.
type ReturnStatement struct {
	base
	Argument Node // may be nil
}

// LabeledStatement is `label: stmt`.
type LabeledStatement struct {
	base
	Label *Identifier
	Body  Node
}

// BreakStatement exits a loop or labeled statement.
type BreakStatement struct {
	base
	Label *Identifier // may be nil
}

// ContinueStatement continues a loop iteration.
type ContinueStatement struct {
	base
	Label *Identifier // may be nil
}

// IfStatement is `if (test) consequent else alternate`.
type IfStatement struct {
	base
	Test       Node
	Consequent Node
	Alternate  Node // may be nil
}

// SwitchStatement is `switch (disc) { cases }`.
type SwitchStatement struct {
	base
	Discriminant Node
	Cases        []*SwitchCase
}

// SwitchCase is one `case test:` or `default:` clause.
type SwitchCase struct {
	base
	Test       Node // nil for default
	Consequent []Node
}

// ThrowStatement raises an exception.
type ThrowStatement struct {
	base
	Argument Node
}

// TryStatement is `try {} catch () {} finally {}`.
type TryStatement struct {
	base
	Block     *BlockStatement
	Handler   *CatchClause    // may be nil
	Finalizer *BlockStatement // may be nil
}

// CatchClause is the handler of a TryStatement.
type CatchClause struct {
	base
	Param Node // Identifier or pattern; may be nil (ES2019 optional binding)
	Body  *BlockStatement
}

// WhileStatement is a `while` loop.
type WhileStatement struct {
	base
	Test Node
	Body Node
}

// DoWhileStatement is a `do ... while` loop.
type DoWhileStatement struct {
	base
	Body Node
	Test Node
}

// ForStatement is a C-style `for` loop.
type ForStatement struct {
	base
	Init   Node // VariableDeclaration, expression, or nil
	Test   Node // may be nil
	Update Node // may be nil
	Body   Node
}

// ForInStatement is `for (left in right) body`.
type ForInStatement struct {
	base
	Left  Node // VariableDeclaration or pattern
	Right Node
	Body  Node
}

// ForOfStatement is `for (left of right) body`.
type ForOfStatement struct {
	base
	Left  Node
	Right Node
	Body  Node
	Await bool
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// FunctionDeclaration declares a named function.
type FunctionDeclaration struct {
	base
	ID        *Identifier // nil only in `export default function() {}`
	Params    []Node
	Body      *BlockStatement
	Generator bool
	Async     bool
}

// VariableDeclaration is `var/let/const` with one or more declarators.
type VariableDeclaration struct {
	base
	Kind         string // "var", "let", or "const"
	Declarations []*VariableDeclarator
}

// VariableDeclarator is a single `name = init` binding.
type VariableDeclarator struct {
	base
	ID   Node // Identifier or pattern
	Init Node // may be nil
}

// ClassDeclaration declares a named class.
type ClassDeclaration struct {
	base
	ID         *Identifier // nil only in `export default class {}`
	SuperClass Node        // may be nil
	Body       *ClassBody
}

// ClassBody holds the member definitions of a class (MethodDefinition and
// PropertyDefinition nodes).
type ClassBody struct {
	base
	Body []Node
}

// PropertyDefinition is a class field, `x = 1;` or `static x;` (ES2022).
type PropertyDefinition struct {
	base
	Key      Node
	Value    Node // may be nil
	Computed bool
	Static   bool
}

// MethodDefinition is one method, getter, setter, or constructor.
type MethodDefinition struct {
	base
	Key      Node // Identifier, Literal, or computed expression
	Value    *FunctionExpression
	Kind     string // "constructor", "method", "get", or "set"
	Computed bool
	Static   bool
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

// ImportDeclaration is `import ... from "mod"`.
type ImportDeclaration struct {
	base
	Specifiers []Node // ImportSpecifier, ImportDefaultSpecifier, ImportNamespaceSpecifier
	Source     *Literal
}

// ImportSpecifier is `{name}` or `{name as local}` in an import.
type ImportSpecifier struct {
	base
	Imported *Identifier
	Local    *Identifier
}

// ImportDefaultSpecifier is the `name` in `import name from "mod"`.
type ImportDefaultSpecifier struct {
	base
	Local *Identifier
}

// ImportNamespaceSpecifier is `* as name`.
type ImportNamespaceSpecifier struct {
	base
	Local *Identifier
}

// ExportNamedDeclaration is `export {a, b}` or `export const x = ...`.
type ExportNamedDeclaration struct {
	base
	Declaration Node // may be nil
	Specifiers  []*ExportSpecifier
	Source      *Literal // may be nil
}

// ExportSpecifier is `{local as exported}` in an export.
type ExportSpecifier struct {
	base
	Local    *Identifier
	Exported *Identifier
}

// ExportDefaultDeclaration is `export default expr`.
type ExportDefaultDeclaration struct {
	base
	Declaration Node
}

// ExportAllDeclaration is `export * from "mod"`.
type ExportAllDeclaration struct {
	base
	Source *Literal
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Identifier is a name reference or binding.
type Identifier struct {
	base
	Name string
}

// LiteralKind discriminates the runtime type of a Literal.
type LiteralKind int

// Literal kinds. They start at one per the style guide so the zero value is
// invalid and accidental zero-initialization is caught by validation.
const (
	LiteralString LiteralKind = iota + 1
	LiteralNumber
	LiteralBoolean
	LiteralNull
	LiteralRegExp
)

// Literal is a string, number, boolean, null, or regular-expression literal.
type Literal struct {
	base
	Kind   LiteralKind
	Raw    string  // exact source text
	String string  // decoded value for string literals
	Number float64 // numeric value for number literals
	Bool   bool    // value for boolean literals
	Regex  struct {
		Pattern string
		Flags   string
	}
}

// ThisExpression is the `this` keyword.
type ThisExpression struct {
	base
}

// Super is the `super` keyword inside class methods.
type Super struct {
	base
}

// ArrayExpression is `[a, b, ...]`. Elements may contain nil for elisions.
type ArrayExpression struct {
	base
	Elements []Node
}

// ObjectExpression is `{k: v, ...}`.
type ObjectExpression struct {
	base
	Properties []Node // *Property or *SpreadElement
}

// Property is one key-value entry of an object literal.
type Property struct {
	base
	Key       Node
	Value     Node
	Kind      string // "init", "get", or "set"
	Computed  bool
	Shorthand bool
	Method    bool
}

// FunctionExpression is an anonymous or named function expression.
type FunctionExpression struct {
	base
	ID        *Identifier // may be nil
	Params    []Node
	Body      *BlockStatement
	Generator bool
	Async     bool
}

// ArrowFunctionExpression is `(params) => body`.
type ArrowFunctionExpression struct {
	base
	Params     []Node
	Body       Node // BlockStatement or expression
	Expression bool // true when Body is an expression
	Async      bool
}

// ClassExpression is an anonymous or named class expression.
type ClassExpression struct {
	base
	ID         *Identifier // may be nil
	SuperClass Node        // may be nil
	Body       *ClassBody
}

// TemplateLiteral is a backtick template string.
type TemplateLiteral struct {
	base
	Quasis      []*TemplateElement
	Expressions []Node
}

// TemplateElement is one literal chunk of a template string.
type TemplateElement struct {
	base
	Raw    string
	Cooked string
	Tail   bool
}

// TaggedTemplateExpression is `tag`...“ `.
type TaggedTemplateExpression struct {
	base
	Tag   Node
	Quasi *TemplateLiteral
}

// MemberExpression is `obj.prop` (dot) or `obj[prop]` (bracket/computed).
type MemberExpression struct {
	base
	Object   Node
	Property Node
	Computed bool // true for bracket notation
	Optional bool // true for `?.`
}

// CallExpression is `callee(args...)`.
type CallExpression struct {
	base
	Callee    Node
	Arguments []Node
	Optional  bool // true for `?.()`
}

// NewExpression is `new callee(args...)`.
type NewExpression struct {
	base
	Callee    Node
	Arguments []Node
}

// SpreadElement is `...arg` in calls, arrays, and objects.
type SpreadElement struct {
	base
	Argument Node
}

// UnaryExpression is a prefix operator such as `!x`, `typeof x`, `-x`.
type UnaryExpression struct {
	base
	Operator string
	Argument Node
}

// UpdateExpression is `++x`, `x++`, `--x`, or `x--`.
type UpdateExpression struct {
	base
	Operator string // "++" or "--"
	Argument Node
	Prefix   bool
}

// BinaryExpression is an arithmetic, relational, bitwise, `in`, or
// `instanceof` expression.
type BinaryExpression struct {
	base
	Operator string
	Left     Node
	Right    Node
}

// LogicalExpression is `&&`, `||`, or `??`.
type LogicalExpression struct {
	base
	Operator string
	Left     Node
	Right    Node
}

// AssignmentExpression is `target op= value`.
type AssignmentExpression struct {
	base
	Operator string // "=", "+=", ...
	Left     Node
	Right    Node
}

// ConditionalExpression is the ternary `test ? consequent : alternate`.
type ConditionalExpression struct {
	base
	Test       Node
	Consequent Node
	Alternate  Node
}

// SequenceExpression is the comma operator `a, b, c`.
type SequenceExpression struct {
	base
	Expressions []Node
}

// RestElement is `...name` in parameter lists and patterns.
type RestElement struct {
	base
	Argument Node
}

// AssignmentPattern is a default value in a binding position, `x = 1`.
type AssignmentPattern struct {
	base
	Left  Node
	Right Node
}

// ArrayPattern is array destructuring, `[a, b] = ...`.
type ArrayPattern struct {
	base
	Elements []Node // may contain nil for holes
}

// ObjectPattern is object destructuring, `{a, b} = ...`.
type ObjectPattern struct {
	base
	Properties []Node // *Property or *RestElement
}

// AwaitExpression is `await arg`.
type AwaitExpression struct {
	base
	Argument Node
}

// YieldExpression is `yield` or `yield* arg`.
type YieldExpression struct {
	base
	Argument Node // may be nil
	Delegate bool
}

// MetaProperty is `new.target` or `import.meta`.
type MetaProperty struct {
	base
	Meta     *Identifier
	Property *Identifier
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// NewIdentifier builds an Identifier with no span, for synthesized code.
func NewIdentifier(name string) *Identifier { return &Identifier{Name: name} }

// NewString builds a string Literal with no span, for synthesized code.
func NewString(v string) *Literal {
	return &Literal{Kind: LiteralString, String: v}
}

// NewNumber builds a numeric Literal with no span, for synthesized code.
func NewNumber(v float64) *Literal {
	return &Literal{Kind: LiteralNumber, Number: v}
}

// NewBool builds a boolean Literal with no span, for synthesized code.
func NewBool(v bool) *Literal {
	return &Literal{Kind: LiteralBoolean, Bool: v}
}
