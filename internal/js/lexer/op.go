package lexer

// Op is the one-byte code of a Punct or Keyword token. The parser
// dispatches on it with integer compares and table lookups instead of
// comparing Lexeme or StringValue strings; every other token kind carries
// OpNone. Punctuator and keyword codes share one space, so a single
// compare tells a token apart from every other punctuator and keyword.
type Op uint8

// Token codes. OpNone is the code of every token that is neither a
// punctuator nor a keyword.
const (
	OpNone Op = iota

	// Punctuators.
	OpLBrace     // {
	OpRBrace     // }
	OpLParen     // (
	OpRParen     // )
	OpLBracket   // [
	OpRBracket   // ]
	OpSemicolon  // ;
	OpComma      // ,
	OpColon      // :
	OpAt         // @
	OpTilde      // ~
	OpDot        // .
	OpEllipsis   // ...
	OpQuestion   // ?
	OpOptChain   // ?.
	OpArrow      // =>
	OpInc        // ++
	OpDec        // --
	OpNot        // !
	OpLT         // <
	OpGT         // >
	OpLE         // <=
	OpGE         // >=
	OpEq         // ==
	OpNe         // !=
	OpStrictEq   // ===
	OpStrictNe   // !==
	OpAdd        // +
	OpSub        // -
	OpMul        // *
	OpDiv        // /
	OpMod        // %
	OpExp        // **
	OpShl        // <<
	OpShr        // >>
	OpUShr       // >>>
	OpBitAnd     // &
	OpBitOr      // |
	OpBitXor     // ^
	OpAnd        // &&
	OpOr         // ||
	OpNullish    // ??
	OpAssign     // =
	OpAddAssign  // +=
	OpSubAssign  // -=
	OpMulAssign  // *=
	OpDivAssign  // /=
	OpModAssign  // %=
	OpExpAssign  // **=
	OpShlAssign  // <<=
	OpShrAssign  // >>=
	OpUShrAssign // >>>=
	OpAndAssign  // &=
	OpOrAssign   // |=
	OpXorAssign  // ^=
	OpLAndAssign // &&=
	OpLOrAssign  // ||=
	OpNullAssign // ??=

	// Keywords: the reserved words the lexer tokenizes as Keyword.
	// Contextual keywords (of, async, get, set, static, from, as) stay
	// Ident and carry OpNone.
	OpAwait
	OpBreak
	OpCase
	OpCatch
	OpClass
	OpConst
	OpContinue
	OpDebugger
	OpDefault
	OpDelete
	OpDo
	OpElse
	OpExport
	OpExtends
	OpFinally
	OpFor
	OpFunction
	OpIf
	OpImport
	OpIn
	OpInstanceof
	OpLet
	OpNew
	OpReturn
	OpSuper
	OpSwitch
	OpThis
	OpThrow
	OpTry
	OpTypeof
	OpVar
	OpVoid
	OpWhile
	OpWith
	OpYield
	OpTrue
	OpFalse
	OpNull

	// OpCount is the number of codes, OpNone included: the length of a
	// table indexed by Op.
	OpCount
)

// opNames spells each code exactly as it appears in source.
var opNames = [OpCount]string{
	OpLBrace: "{", OpRBrace: "}", OpLParen: "(", OpRParen: ")",
	OpLBracket: "[", OpRBracket: "]", OpSemicolon: ";", OpComma: ",",
	OpColon: ":", OpAt: "@", OpTilde: "~", OpDot: ".", OpEllipsis: "...",
	OpQuestion: "?", OpOptChain: "?.", OpArrow: "=>", OpInc: "++",
	OpDec: "--", OpNot: "!", OpLT: "<", OpGT: ">", OpLE: "<=", OpGE: ">=",
	OpEq: "==", OpNe: "!=", OpStrictEq: "===", OpStrictNe: "!==",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", OpExp: "**",
	OpShl: "<<", OpShr: ">>", OpUShr: ">>>", OpBitAnd: "&", OpBitOr: "|",
	OpBitXor: "^", OpAnd: "&&", OpOr: "||", OpNullish: "??",
	OpAssign: "=", OpAddAssign: "+=", OpSubAssign: "-=", OpMulAssign: "*=",
	OpDivAssign: "/=", OpModAssign: "%=", OpExpAssign: "**=",
	OpShlAssign: "<<=", OpShrAssign: ">>=", OpUShrAssign: ">>>=",
	OpAndAssign: "&=", OpOrAssign: "|=", OpXorAssign: "^=",
	OpLAndAssign: "&&=", OpLOrAssign: "||=", OpNullAssign: "??=",

	OpAwait: "await", OpBreak: "break", OpCase: "case", OpCatch: "catch",
	OpClass: "class", OpConst: "const", OpContinue: "continue",
	OpDebugger: "debugger", OpDefault: "default", OpDelete: "delete",
	OpDo: "do", OpElse: "else", OpExport: "export", OpExtends: "extends",
	OpFinally: "finally", OpFor: "for", OpFunction: "function", OpIf: "if",
	OpImport: "import", OpIn: "in", OpInstanceof: "instanceof", OpLet: "let",
	OpNew: "new", OpReturn: "return", OpSuper: "super", OpSwitch: "switch",
	OpThis: "this", OpThrow: "throw", OpTry: "try", OpTypeof: "typeof",
	OpVar: "var", OpVoid: "void", OpWhile: "while", OpWith: "with",
	OpYield: "yield", OpTrue: "true", OpFalse: "false", OpNull: "null",
}

// String returns the code's source spelling ("" for OpNone), so parser
// error text built from it reads exactly as text built from the lexeme.
func (o Op) String() string {
	if o < OpCount {
		return opNames[o]
	}
	return ""
}

// keywordOp returns the code of a reserved word tokenized as Keyword, or
// OpNone for any other name. Every identifier the lexer scans takes this
// test, so it is a string switch — length dispatch plus memory compare —
// rather than a map lookup, which would hash the name on every call.
//
//jslint:hotpath
func keywordOp(name string) Op {
	switch name {
	case "await":
		return OpAwait
	case "break":
		return OpBreak
	case "case":
		return OpCase
	case "catch":
		return OpCatch
	case "class":
		return OpClass
	case "const":
		return OpConst
	case "continue":
		return OpContinue
	case "debugger":
		return OpDebugger
	case "default":
		return OpDefault
	case "delete":
		return OpDelete
	case "do":
		return OpDo
	case "else":
		return OpElse
	case "export":
		return OpExport
	case "extends":
		return OpExtends
	case "finally":
		return OpFinally
	case "for":
		return OpFor
	case "function":
		return OpFunction
	case "if":
		return OpIf
	case "import":
		return OpImport
	case "in":
		return OpIn
	case "instanceof":
		return OpInstanceof
	case "let":
		return OpLet
	case "new":
		return OpNew
	case "return":
		return OpReturn
	case "super":
		return OpSuper
	case "switch":
		return OpSwitch
	case "this":
		return OpThis
	case "throw":
		return OpThrow
	case "try":
		return OpTry
	case "typeof":
		return OpTypeof
	case "var":
		return OpVar
	case "void":
		return OpVoid
	case "while":
		return OpWhile
	case "with":
		return OpWith
	case "yield":
		return OpYield
	case "true":
		return OpTrue
	case "false":
		return OpFalse
	case "null":
		return OpNull
	}
	return OpNone
}

// byteAt returns s[i], or 0 past the end of s.
func byteAt(s string, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// matchPunct returns the code and byte length of the longest punctuator at
// the head of s, or (OpNone, 0) when s does not start with one. It is a
// byte switch on the lead byte and then on the bytes after it, so the
// lexer never compares a candidate string. `?.` followed by a digit is a
// ternary `?`, as in `a?.5:b`.
//
//jslint:hotpath
func matchPunct(s string) (Op, int) {
	if len(s) == 0 {
		return OpNone, 0
	}
	b1 := byteAt(s, 1)
	switch s[0] {
	case '{':
		return OpLBrace, 1
	case '}':
		return OpRBrace, 1
	case '(':
		return OpLParen, 1
	case ')':
		return OpRParen, 1
	case '[':
		return OpLBracket, 1
	case ']':
		return OpRBracket, 1
	case ';':
		return OpSemicolon, 1
	case ',':
		return OpComma, 1
	case ':':
		return OpColon, 1
	case '@':
		return OpAt, 1
	case '~':
		return OpTilde, 1
	case '.':
		if b1 == '.' && byteAt(s, 2) == '.' {
			return OpEllipsis, 3
		}
		return OpDot, 1
	case '?':
		switch b1 {
		case '?':
			if byteAt(s, 2) == '=' {
				return OpNullAssign, 3
			}
			return OpNullish, 2
		case '.':
			if b2 := byteAt(s, 2); b2 < '0' || b2 > '9' {
				return OpOptChain, 2
			}
		}
		return OpQuestion, 1
	case '=':
		switch b1 {
		case '=':
			if byteAt(s, 2) == '=' {
				return OpStrictEq, 3
			}
			return OpEq, 2
		case '>':
			return OpArrow, 2
		}
		return OpAssign, 1
	case '!':
		if b1 == '=' {
			if byteAt(s, 2) == '=' {
				return OpStrictNe, 3
			}
			return OpNe, 2
		}
		return OpNot, 1
	case '+':
		switch b1 {
		case '+':
			return OpInc, 2
		case '=':
			return OpAddAssign, 2
		}
		return OpAdd, 1
	case '-':
		switch b1 {
		case '-':
			return OpDec, 2
		case '=':
			return OpSubAssign, 2
		}
		return OpSub, 1
	case '*':
		switch b1 {
		case '*':
			if byteAt(s, 2) == '=' {
				return OpExpAssign, 3
			}
			return OpExp, 2
		case '=':
			return OpMulAssign, 2
		}
		return OpMul, 1
	case '/':
		if b1 == '=' {
			return OpDivAssign, 2
		}
		return OpDiv, 1
	case '%':
		if b1 == '=' {
			return OpModAssign, 2
		}
		return OpMod, 1
	case '^':
		if b1 == '=' {
			return OpXorAssign, 2
		}
		return OpBitXor, 1
	case '<':
		switch b1 {
		case '<':
			if byteAt(s, 2) == '=' {
				return OpShlAssign, 3
			}
			return OpShl, 2
		case '=':
			return OpLE, 2
		}
		return OpLT, 1
	case '>':
		switch b1 {
		case '>':
			switch byteAt(s, 2) {
			case '>':
				if byteAt(s, 3) == '=' {
					return OpUShrAssign, 4
				}
				return OpUShr, 3
			case '=':
				return OpShrAssign, 3
			}
			return OpShr, 2
		case '=':
			return OpGE, 2
		}
		return OpGT, 1
	case '&':
		switch b1 {
		case '&':
			if byteAt(s, 2) == '=' {
				return OpLAndAssign, 3
			}
			return OpAnd, 2
		case '=':
			return OpAndAssign, 2
		}
		return OpBitAnd, 1
	case '|':
		switch b1 {
		case '|':
			if byteAt(s, 2) == '=' {
				return OpLOrAssign, 3
			}
			return OpOr, 2
		case '=':
			return OpOrAssign, 2
		}
		return OpBitOr, 1
	}
	return OpNone, 0
}
