package refspec

import (
	"repro/internal/js/ast"
)

// saved is a parser backtracking checkpoint.
type saved struct {
	lexState   State
	tok        Token
	numStored  int
	numTokens  int
	lastEndPos int32
}

func (p *parser) save() saved {
	return saved{
		lexState:   p.lex.Save(),
		tok:        p.tok,
		numStored:  len(p.tokens),
		numTokens:  p.numTokens,
		lastEndPos: p.lastEnd_,
	}
}

func (p *parser) restore(s saved) {
	p.lex.Restore(s.lexState)
	p.tok = s.tok
	p.tokens = p.tokens[:s.numStored]
	p.numTokens = s.numTokens
	p.lastEnd_ = s.lastEndPos
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

func (p *parser) parseFunctionDeclaration(isAsync bool) (*ast.FunctionDeclaration, error) {
	return p.parseFunctionDeclarationNamed(isAsync, false)
}

// parseFunctionDeclarationNamed parses a function declaration; allowAnon
// permits the anonymous `export default function () {}` form.
func (p *parser) parseFunctionDeclarationNamed(isAsync, allowAnon bool) (*ast.FunctionDeclaration, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("function"); err != nil {
		return nil, err
	}
	gen := false
	if ok, err := p.eatPunct("*"); err != nil {
		return nil, err
	} else if ok {
		gen = true
	}
	fn := &ast.FunctionDeclaration{Generator: gen, Async: isAsync}
	if p.at(Ident) || p.tok.Kind == Keyword && isContextualName(p.tok.Lexeme) {
		fn.ID = p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
	} else if !allowAnon {
		return nil, p.errorf("function declaration requires a name")
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	fn.Params = params
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	p.finish(fn, start)
	return fn, nil
}

func (p *parser) parseFunctionExpression(isAsync bool) (*ast.FunctionExpression, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("function"); err != nil {
		return nil, err
	}
	gen := false
	if ok, err := p.eatPunct("*"); err != nil {
		return nil, err
	} else if ok {
		gen = true
	}
	fn := &ast.FunctionExpression{Generator: gen, Async: isAsync}
	if p.at(Ident) {
		fn.ID = p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	fn.Params = params
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	p.finish(fn, start)
	return fn, nil
}

// isContextualName reports keywords that are still valid as names in certain
// positions (sloppy-mode leniency for real-world code).
func isContextualName(s string) bool {
	switch s {
	case "yield", "await", "let":
		return true
	}
	return false
}

// parseParams parses `( param, ... )` with defaults, patterns, and rest.
func (p *parser) parseParams() ([]ast.Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []ast.Node
	for !p.atPunct(")") {
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		params = append(params, param)
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) parseParam() (ast.Node, error) {
	start := p.tok.Start.Offset
	if p.atPunct("...") {
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.RestElement{Argument: arg}, start), nil
	}
	target, err := p.parseBindingTarget()
	if err != nil {
		return nil, err
	}
	if ok, err := p.eatPunct("="); err != nil {
		return nil, err
	} else if ok {
		dflt, err := p.parseAssignment(false)
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.AssignmentPattern{Left: target, Right: dflt}, start), nil
	}
	return target, nil
}

// parseBindingTarget parses an Identifier, ArrayPattern, or ObjectPattern in
// a binding position.
func (p *parser) parseBindingTarget() (ast.Node, error) {
	start := p.tok.Start.Offset
	switch {
	case p.at(Ident), p.tok.Kind == Keyword && isContextualName(p.tok.Lexeme):
		id := ast.NewIdentifier(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.finish(id, start), nil
	case p.atPunct("["):
		return p.parseArrayPattern()
	case p.atPunct("{"):
		return p.parseObjectPattern()
	default:
		return nil, p.errorf("expected binding target, found %q", p.tokSource())
	}
}

func (p *parser) parseArrayPattern() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	pat := &ast.ArrayPattern{}
	for !p.atPunct("]") {
		if p.atPunct(",") {
			pat.Elements = append(pat.Elements, nil) // hole
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		var el ast.Node
		var err error
		if p.atPunct("...") {
			eStart := p.tok.Start.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			el = p.finish(&ast.RestElement{Argument: arg}, eStart)
		} else {
			el, err = p.parseParam() // binding target with optional default
			if err != nil {
				return nil, err
			}
		}
		pat.Elements = append(pat.Elements, el)
		if !p.atPunct("]") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return p.finish(pat, start), nil
}

func (p *parser) parseObjectPattern() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	pat := &ast.ObjectPattern{}
	for !p.atPunct("}") {
		if p.atPunct("...") {
			eStart := p.tok.Start.Offset
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			pat.Properties = append(pat.Properties, p.finish(&ast.RestElement{Argument: arg}, eStart))
		} else {
			prop, err := p.parsePatternProperty()
			if err != nil {
				return nil, err
			}
			pat.Properties = append(pat.Properties, prop)
		}
		if !p.atPunct("}") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return p.finish(pat, start), nil
}

func (p *parser) parsePatternProperty() (ast.Node, error) {
	start := p.tok.Start.Offset
	prop := &ast.Property{Kind: "init"}
	key, computed, err := p.parsePropertyKey()
	if err != nil {
		return nil, err
	}
	prop.Key = key
	prop.Computed = computed
	if ok, err := p.eatPunct(":"); err != nil {
		return nil, err
	} else if ok {
		val, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		prop.Value = val
	} else {
		// Shorthand `{a}` or `{a = 1}`.
		id, ok := key.(*ast.Identifier)
		if !ok {
			return nil, p.errorf("invalid shorthand pattern property")
		}
		prop.Shorthand = true
		if ok, err := p.eatPunct("="); err != nil {
			return nil, err
		} else if ok {
			dflt, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			ap := &ast.AssignmentPattern{Left: cloneIdent(id), Right: dflt}
			p.finish(ap, start)
			prop.Value = ap
		} else {
			prop.Value = cloneIdent(id)
		}
	}
	return p.finish(prop, start), nil
}

// parsePropertyKey parses an object-literal / class-member key.
func (p *parser) parsePropertyKey() (ast.Node, bool, error) {
	start := p.tok.Start.Offset
	switch p.tok.Kind {
	case Ident, Keyword:
		id := ast.NewIdentifier(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return p.finish(id, start), false, nil
	case String:
		lit := p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return p.finish(lit, start), false, nil
	case Number:
		lit := &ast.Literal{Kind: ast.LiteralNumber, Raw: p.tok.Lexeme, Number: p.tok.NumberValue}
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return p.finish(lit, start), false, nil
	case PrivateIdent:
		id := ast.NewIdentifier(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return p.finish(id, start), false, nil
	case Punct:
		if p.atPunct("[") {
			if err := p.next(); err != nil {
				return nil, false, err
			}
			key, err := p.parseAssignment(false)
			if err != nil {
				return nil, false, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, false, err
			}
			return key, true, nil
		}
	}
	return nil, false, p.errorf("expected property key, found %q", p.tokSource())
}

// ---------------------------------------------------------------------------
// Classes
// ---------------------------------------------------------------------------

func (p *parser) parseClassDeclaration() (ast.Node, error) {
	start := p.tok.Start.Offset
	id, super, body, err := p.parseClassTail()
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.ClassDeclaration{ID: id, SuperClass: super, Body: body}, start), nil
}

func (p *parser) parseClassExpression() (ast.Node, error) {
	start := p.tok.Start.Offset
	id, super, body, err := p.parseClassTail()
	if err != nil {
		return nil, err
	}
	return p.finish(&ast.ClassExpression{ID: id, SuperClass: super, Body: body}, start), nil
}

func (p *parser) parseClassTail() (*ast.Identifier, ast.Node, *ast.ClassBody, error) {
	if err := p.expectKeyword("class"); err != nil {
		return nil, nil, nil, err
	}
	var id *ast.Identifier
	if p.at(Ident) {
		id = p.identHere(p.tok.Lexeme)
		if err := p.next(); err != nil {
			return nil, nil, nil, err
		}
	}
	var super ast.Node
	if p.atKeyword("extends") {
		if err := p.next(); err != nil {
			return nil, nil, nil, err
		}
		s, err := p.parseLeftHandSide()
		if err != nil {
			return nil, nil, nil, err
		}
		super = s
	}
	bStart := p.tok.Start.Offset
	if err := p.expectPunct("{"); err != nil {
		return nil, nil, nil, err
	}
	body := &ast.ClassBody{}
	for !p.atPunct("}") {
		if ok, err := p.eatPunct(";"); err != nil {
			return nil, nil, nil, err
		} else if ok {
			continue
		}
		m, err := p.parseClassMember()
		if err != nil {
			return nil, nil, nil, err
		}
		body.Body = append(body.Body, m)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, nil, nil, err
	}
	p.finish(body, bStart)
	return id, super, body, nil
}

// parseClassMember parses one method, accessor, or class field.
func (p *parser) parseClassMember() (ast.Node, error) {
	start := p.tok.Start.Offset
	m := &ast.MethodDefinition{Kind: "method"}
	if p.atIdentLexeme("static") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			p.restore(save) // a method actually named `static`
		} else {
			m.Static = true
		}
	}
	isAsync := false
	isGen := false
	if p.atIdentLexeme("async") {
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			p.restore(save) // method named `async`
		} else {
			isAsync = true
		}
	}
	if p.atPunct("*") {
		isGen = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.atIdentLexeme("get") || p.atIdentLexeme("set") {
		accessor := p.tok.Lexeme
		save := p.save()
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			p.restore(save) // method named get/set
		} else {
			m.Kind = accessor
		}
	}
	key, computed, err := p.parsePropertyKey()
	if err != nil {
		return nil, err
	}
	m.Key = key
	m.Computed = computed
	// Class field: `key = value;`, `key;`, or key followed by `}` / a new
	// member on the next line (ES2022 PropertyDefinition).
	if m.Kind == "method" && !p.atPunct("(") {
		field := &ast.PropertyDefinition{Key: key, Computed: computed, Static: m.Static}
		if ok, err := p.eatPunct("="); err != nil {
			return nil, err
		} else if ok {
			val, err := p.parseAssignment(false)
			if err != nil {
				return nil, err
			}
			field.Value = val
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return p.finish(field, start), nil
	}
	if id, ok := key.(*ast.Identifier); ok && !computed && id.Name == "constructor" && m.Kind == "method" && !m.Static {
		m.Kind = "constructor"
	}
	fStart := p.tok.Start.Offset
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn := &ast.FunctionExpression{Params: params, Body: body, Generator: isGen, Async: isAsync}
	p.finish(fn, fStart)
	m.Value = fn
	p.finish(m, start)
	return m, nil
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

func (p *parser) parseImport() (ast.Node, error) {
	start := p.tok.Start.Offset
	save := p.save()
	if err := p.expectKeyword("import"); err != nil {
		return nil, err
	}
	// `import(...)` dynamic import and `import.meta` are expressions.
	if p.atPunct("(") || p.atPunct(".") {
		p.restore(save)
		return p.parseExpressionStatement()
	}
	decl := &ast.ImportDeclaration{}
	if p.at(String) {
		// `import "mod";`
		decl.Source = p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return p.finish(decl, start), nil
	}
	for {
		switch {
		case p.at(Ident):
			spec := &ast.ImportDefaultSpecifier{Local: p.identHere(p.tok.Lexeme)}
			spec.SetRange(spec.Local.Range())
			if err := p.next(); err != nil {
				return nil, err
			}
			decl.Specifiers = append(decl.Specifiers, spec)
		case p.atPunct("*"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if !p.atIdentLexeme("as") {
				return nil, p.errorf("expected 'as' in namespace import")
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			spec := &ast.ImportNamespaceSpecifier{Local: p.identHere(p.tok.Lexeme)}
			spec.SetRange(spec.Local.Range())
			if err := p.next(); err != nil {
				return nil, err
			}
			decl.Specifiers = append(decl.Specifiers, spec)
		case p.atPunct("{"):
			if err := p.next(); err != nil {
				return nil, err
			}
			for !p.atPunct("}") {
				imported := p.identHere(p.tok.Lexeme)
				if err := p.next(); err != nil {
					return nil, err
				}
				local := imported
				if p.atIdentLexeme("as") {
					if err := p.next(); err != nil {
						return nil, err
					}
					local = p.identHere(p.tok.Lexeme)
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				spec := &ast.ImportSpecifier{Imported: imported, Local: local}
				spec.SetRange(byteRange(imported.Range().Start, local.Range().End))
				decl.Specifiers = append(decl.Specifiers, spec)
				if !p.atPunct("}") {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unexpected token in import: %q", p.tokSource())
		}
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if !p.atIdentLexeme("from") {
		return nil, p.errorf("expected 'from' in import")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if !p.at(String) {
		return nil, p.errorf("expected module string in import")
	}
	decl.Source = p.stringLitHere()
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return p.finish(decl, start), nil
}

func (p *parser) parseExport() (ast.Node, error) {
	start := p.tok.Start.Offset
	if err := p.expectKeyword("export"); err != nil {
		return nil, err
	}
	switch {
	case p.atKeyword("default"):
		if err := p.next(); err != nil {
			return nil, err
		}
		var decl ast.Node
		var err error
		switch {
		case p.atKeyword("function"):
			decl, err = p.parseFunctionDeclarationNamed(false, true)
		case p.atKeyword("class"):
			decl, err = p.parseClassDeclaration()
		default:
			decl, err = p.parseAssignment(false)
			if err == nil {
				err = p.consumeSemicolon()
			}
		}
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.ExportDefaultDeclaration{Declaration: decl}, start), nil
	case p.atPunct("*"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.atIdentLexeme("from") {
			return nil, p.errorf("expected 'from' in export *")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.at(String) {
			return nil, p.errorf("expected module string in export *")
		}
		src := p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return p.finish(&ast.ExportAllDeclaration{Source: src}, start), nil
	case p.atPunct("{"):
		if err := p.next(); err != nil {
			return nil, err
		}
		decl := &ast.ExportNamedDeclaration{}
		for !p.atPunct("}") {
			local := p.identHere(p.tok.Lexeme)
			if err := p.next(); err != nil {
				return nil, err
			}
			exported := local
			if p.atIdentLexeme("as") {
				if err := p.next(); err != nil {
					return nil, err
				}
				exported = p.identHere(p.tok.Lexeme)
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			spec := &ast.ExportSpecifier{Local: local, Exported: exported}
			spec.SetRange(byteRange(local.Range().Start, exported.Range().End))
			decl.Specifiers = append(decl.Specifiers, spec)
			if !p.atPunct("}") {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		if p.atIdentLexeme("from") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if !p.at(String) {
				return nil, p.errorf("expected module string")
			}
			decl.Source = p.stringLitHere()
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return p.finish(decl, start), nil
	default:
		var inner ast.Node
		var err error
		switch {
		case p.atKeyword("var"), p.atKeyword("let"), p.atKeyword("const"):
			inner, err = p.parseVariableDeclaration(true)
		case p.atKeyword("function"):
			inner, err = p.parseFunctionDeclaration(false)
		case p.atKeyword("class"):
			inner, err = p.parseClassDeclaration()
		case p.atIdentLexeme("async"):
			if err := p.next(); err != nil {
				return nil, err
			}
			inner, err = p.parseFunctionDeclaration(true)
		default:
			return nil, p.errorf("unexpected token after export: %q", p.tokSource())
		}
		if err != nil {
			return nil, err
		}
		return p.finish(&ast.ExportNamedDeclaration{Declaration: inner}, start), nil
	}
}
