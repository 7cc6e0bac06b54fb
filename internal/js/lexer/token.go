// Package lexer tokenizes JavaScript source text. It produces the lexical
// units ("tokens") that the parser consumes and that the feature extractor
// counts, mirroring the token collection the paper performs with Esprima.
package lexer

import (
	"fmt"

	"repro/internal/js/ast"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF Kind = iota + 1
	Ident
	Keyword
	Punct
	Number
	String
	Regex
	// NoSubstTemplate is a template literal without substitutions: `abc`.
	NoSubstTemplate
	// TemplateHead is the `abc${ part of a template with substitutions.
	TemplateHead
	// TemplateMiddle is a }abc${ continuation.
	TemplateMiddle
	// TemplateTail is the closing }abc` part.
	TemplateTail
	// PrivateIdent is a #name class member reference.
	PrivateIdent
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Keyword:
		return "Keyword"
	case Punct:
		return "Punct"
	case Number:
		return "Number"
	case String:
		return "String"
	case Regex:
		return "Regex"
	case NoSubstTemplate:
		return "NoSubstTemplate"
	case TemplateHead:
		return "TemplateHead"
	case TemplateMiddle:
		return "TemplateMiddle"
	case TemplateTail:
		return "TemplateTail"
	case PrivateIdent:
		return "PrivateIdent"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Token is one lexical unit. Both Lexeme and StringValue are slices of the
// source buffer unless the token contains escape sequences, in which case
// StringValue owns the decoded memory.
type Token struct {
	Kind   Kind
	Lexeme string // raw source text of the token
	// Start and End are the byte offsets of the token's first byte and of
	// the byte after it; ast.Lines resolves them to lines and columns.
	Start, End int32
	// NewlineBefore is true when a line terminator appears between the
	// previous token and this one; the parser needs it for automatic
	// semicolon insertion.
	NewlineBefore bool
	// StringValue is the decoded value for String, Ident, Keyword, and
	// PrivateIdent tokens (escapes applied; PrivateIdent keeps its '#')
	// and the cooked value for template tokens. Anything comparing or
	// storing identifier or keyword names must use it, never Lexeme,
	// which keeps the raw \uXXXX spelling.
	StringValue string
	// NumberValue is the numeric value for Number tokens.
	NumberValue float64
	// RegexPattern and RegexFlags are set for Regex tokens.
	RegexPattern string
	RegexFlags   string
}

// IsPunct reports whether the token is the given punctuator.
func (t Token) IsPunct(s string) bool { return t.Kind == Punct && t.Lexeme == s }

// IsKeyword reports whether the token is the given keyword. It compares the
// decoded StringValue, so escaped spellings like \u0069f still match.
func (t Token) IsKeyword(s string) bool { return t.Kind == Keyword && t.StringValue == s }

// Comment is a source comment, retained for token-level features such as the
// comment-to-code ratio that distinguishes minified from regular scripts.
type Comment struct {
	Range ast.Range // byte range, delimiters included
	Text  string    // comment text without delimiters
	Block bool      // true for /* */ comments
}

// isKeywordName reports whether name is a reserved word tokenized as
// Keyword. Contextual keywords (of, async, get, set, static, from, as) stay
// Ident and are recognized by the parser from the decoded name. Every
// identifier the lexer scans takes this test, so it is a string switch —
// length dispatch plus memory compare — rather than a map lookup, which
// would hash the name on every call.
//
//jslint:hotpath
func isKeywordName(name string) bool {
	switch name {
	case "await", "break", "case", "catch", "class",
		"const", "continue", "debugger", "default",
		"delete", "do", "else", "export", "extends",
		"finally", "for", "function", "if", "import",
		"in", "instanceof", "let", "new", "return",
		"super", "switch", "this", "throw", "try",
		"typeof", "var", "void", "while", "with",
		"yield", "true", "false", "null":
		return true
	}
	return false
}
