package parser

import (
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
)

// saved is a parser backtracking checkpoint.
type saved struct {
	lexState   lexer.State
	tok        lexer.Token
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
	start := p.tok.Start
	if err := p.expectKeyword("function"); err != nil {
		return nil, err
	}
	gen := false
	if ok, err := p.eatPunct("*"); err != nil {
		return nil, err
	} else if ok {
		gen = true
	}
	fn := p.arena.NewFunctionDeclaration(ast.FunctionDeclaration{Generator: gen, Async: isAsync})
	if p.at(lexer.Ident) || p.tok.Kind == lexer.Keyword && isContextualName(p.tok.StringValue) {
		fn.ID = p.identHere(p.tok.StringValue)
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
	finish(p, fn, start)
	return fn, nil
}

func (p *parser) parseFunctionExpression(isAsync bool) (*ast.FunctionExpression, error) {
	start := p.tok.Start
	if err := p.expectKeyword("function"); err != nil {
		return nil, err
	}
	gen := false
	if ok, err := p.eatPunct("*"); err != nil {
		return nil, err
	} else if ok {
		gen = true
	}
	fn := p.arena.NewFunctionExpression(ast.FunctionExpression{Generator: gen, Async: isAsync})
	if p.at(lexer.Ident) {
		fn.ID = p.identHere(p.tok.StringValue)
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
	finish(p, fn, start)
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
	start := p.tok.Start
	if p.atPunct("...") {
		if err := p.next(); err != nil {
			return nil, err
		}
		arg, err := p.parseBindingTarget()
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewRestElement(ast.RestElement{Argument: arg}), start), nil
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
		return finish(p, p.arena.NewAssignmentPattern(ast.AssignmentPattern{Left: target, Right: dflt}), start), nil
	}
	return target, nil
}

// parseBindingTarget parses an Identifier, ArrayPattern, or ObjectPattern in
// a binding position.
func (p *parser) parseBindingTarget() (ast.Node, error) {
	start := p.tok.Start
	switch {
	case p.at(lexer.Ident), p.tok.Kind == lexer.Keyword && isContextualName(p.tok.StringValue):
		id := p.arena.NewIdentifier(ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, err
		}
		return finish(p, id, start), nil
	case p.atPunct("["):
		return p.parseArrayPattern()
	case p.atPunct("{"):
		return p.parseObjectPattern()
	default:
		return nil, p.errorf("expected binding target, found %q", p.tok.Lexeme)
	}
}

func (p *parser) parseArrayPattern() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	pat := p.arena.NewArrayPattern(ast.ArrayPattern{})
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
			eStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			el = finish(p, p.arena.NewRestElement(ast.RestElement{Argument: arg}), eStart)
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
	return finish(p, pat, start), nil
}

func (p *parser) parseObjectPattern() (ast.Node, error) {
	start := p.tok.Start
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	pat := p.arena.NewObjectPattern(ast.ObjectPattern{})
	for !p.atPunct("}") {
		if p.atPunct("...") {
			eStart := p.tok.Start
			if err := p.next(); err != nil {
				return nil, err
			}
			arg, err := p.parseBindingTarget()
			if err != nil {
				return nil, err
			}
			pat.Properties = append(pat.Properties, finish(p, p.arena.NewRestElement(ast.RestElement{Argument: arg}), eStart))
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
	return finish(p, pat, start), nil
}

func (p *parser) parsePatternProperty() (ast.Node, error) {
	start := p.tok.Start
	prop := p.arena.NewProperty(ast.Property{Kind: "init"})
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
			ap := p.arena.NewAssignmentPattern(ast.AssignmentPattern{Left: p.cloneIdent(id), Right: dflt})
			finish(p, ap, start)
			prop.Value = ap
		} else {
			prop.Value = p.cloneIdent(id)
		}
	}
	return finish(p, prop, start), nil
}

// parsePropertyKey parses an object-literal / class-member key.
func (p *parser) parsePropertyKey() (ast.Node, bool, error) {
	start := p.tok.Start
	switch p.tok.Kind {
	case lexer.Ident, lexer.Keyword:
		id := p.arena.NewIdentifier(ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return finish(p, id, start), false, nil
	case lexer.String:
		lit := p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return finish(p, lit, start), false, nil
	case lexer.Number:
		lit := p.arena.NewLiteral(ast.Literal{Kind: ast.LiteralNumber, Raw: p.tok.Lexeme, Number: p.tok.NumberValue})
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return finish(p, lit, start), false, nil
	case lexer.PrivateIdent:
		id := p.arena.NewIdentifier(ast.Identifier{Name: p.tok.StringValue})
		if err := p.next(); err != nil {
			return nil, false, err
		}
		return finish(p, id, start), false, nil
	case lexer.Punct:
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
	return nil, false, p.errorf("expected property key, found %q", p.tok.Lexeme)
}

// ---------------------------------------------------------------------------
// Classes
// ---------------------------------------------------------------------------

func (p *parser) parseClassDeclaration() (ast.Node, error) {
	start := p.tok.Start
	id, super, body, err := p.parseClassTail()
	if err != nil {
		return nil, err
	}
	return finish(p, p.arena.NewClassDeclaration(ast.ClassDeclaration{ID: id, SuperClass: super, Body: body}), start), nil
}

func (p *parser) parseClassExpression() (ast.Node, error) {
	start := p.tok.Start
	id, super, body, err := p.parseClassTail()
	if err != nil {
		return nil, err
	}
	return finish(p, p.arena.NewClassExpression(ast.ClassExpression{ID: id, SuperClass: super, Body: body}), start), nil
}

func (p *parser) parseClassTail() (*ast.Identifier, ast.Node, *ast.ClassBody, error) {
	if err := p.expectKeyword("class"); err != nil {
		return nil, nil, nil, err
	}
	var id *ast.Identifier
	if p.at(lexer.Ident) {
		id = p.identHere(p.tok.StringValue)
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
	bStart := p.tok.Start
	if err := p.expectPunct("{"); err != nil {
		return nil, nil, nil, err
	}
	body := p.arena.NewClassBody(ast.ClassBody{})
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
	finish(p, body, bStart)
	return id, super, body, nil
}

// parseClassMember parses one method, accessor, or class field.
func (p *parser) parseClassMember() (ast.Node, error) {
	start := p.tok.Start
	m := p.arena.NewMethodDefinition(ast.MethodDefinition{Kind: "method"})
	if p.atIdentName("static") {
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
	if p.atIdentName("async") {
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
	if p.atIdentName("get") || p.atIdentName("set") {
		accessor := p.tok.StringValue
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
		field := p.arena.NewPropertyDefinition(ast.PropertyDefinition{Key: key, Computed: computed, Static: m.Static})
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
		return finish(p, field, start), nil
	}
	if id, ok := key.(*ast.Identifier); ok && !computed && id.Name == "constructor" && m.Kind == "method" && !m.Static {
		m.Kind = "constructor"
	}
	fStart := p.tok.Start
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn := p.arena.NewFunctionExpression(ast.FunctionExpression{Params: params, Body: body, Generator: isGen, Async: isAsync})
	finish(p, fn, fStart)
	m.Value = fn
	finish(p, m, start)
	return m, nil
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

func (p *parser) parseImport() (ast.Node, error) {
	start := p.tok.Start
	save := p.save()
	if err := p.expectKeyword("import"); err != nil {
		return nil, err
	}
	// `import(...)` dynamic import and `import.meta` are expressions.
	if p.atPunct("(") || p.atPunct(".") {
		p.restore(save)
		return p.parseExpressionStatement()
	}
	decl := p.arena.NewImportDeclaration(ast.ImportDeclaration{})
	if p.at(lexer.String) {
		// `import "mod";`
		decl.Source = p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return finish(p, decl, start), nil
	}
	for {
		switch {
		case p.at(lexer.Ident):
			spec := p.arena.NewImportDefaultSpecifier(ast.ImportDefaultSpecifier{Local: p.identHere(p.tok.StringValue)})
			spec.SetRange(spec.Local.Range())
			if err := p.next(); err != nil {
				return nil, err
			}
			decl.Specifiers = append(decl.Specifiers, spec)
		case p.atPunct("*"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if !p.atIdentName("as") {
				return nil, p.errorf("expected 'as' in namespace import")
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			spec := p.arena.NewImportNamespaceSpecifier(ast.ImportNamespaceSpecifier{Local: p.identHere(p.tok.StringValue)})
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
				imported := p.identHere(p.tok.StringValue)
				if err := p.next(); err != nil {
					return nil, err
				}
				local := imported
				if p.atIdentName("as") {
					if err := p.next(); err != nil {
						return nil, err
					}
					local = p.identHere(p.tok.StringValue)
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				spec := p.arena.NewImportSpecifier(ast.ImportSpecifier{Imported: imported, Local: local})
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
			return nil, p.errorf("unexpected token in import: %q", p.tok.Lexeme)
		}
		if ok, err := p.eatPunct(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if !p.atIdentName("from") {
		return nil, p.errorf("expected 'from' in import")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if !p.at(lexer.String) {
		return nil, p.errorf("expected module string in import")
	}
	decl.Source = p.stringLitHere()
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return finish(p, decl, start), nil
}

func (p *parser) parseExport() (ast.Node, error) {
	start := p.tok.Start
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
		return finish(p, p.arena.NewExportDefaultDeclaration(ast.ExportDefaultDeclaration{Declaration: decl}), start), nil
	case p.atPunct("*"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.atIdentName("from") {
			return nil, p.errorf("expected 'from' in export *")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.at(lexer.String) {
			return nil, p.errorf("expected module string in export *")
		}
		src := p.stringLitHere()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.consumeSemicolon(); err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewExportAllDeclaration(ast.ExportAllDeclaration{Source: src}), start), nil
	case p.atPunct("{"):
		if err := p.next(); err != nil {
			return nil, err
		}
		decl := p.arena.NewExportNamedDeclaration(ast.ExportNamedDeclaration{})
		for !p.atPunct("}") {
			local := p.identHere(p.tok.StringValue)
			if err := p.next(); err != nil {
				return nil, err
			}
			exported := local
			if p.atIdentName("as") {
				if err := p.next(); err != nil {
					return nil, err
				}
				exported = p.identHere(p.tok.StringValue)
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			spec := p.arena.NewExportSpecifier(ast.ExportSpecifier{Local: local, Exported: exported})
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
		if p.atIdentName("from") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if !p.at(lexer.String) {
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
		return finish(p, decl, start), nil
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
		case p.atIdentName("async"):
			if err := p.next(); err != nil {
				return nil, err
			}
			inner, err = p.parseFunctionDeclaration(true)
		default:
			return nil, p.errorf("unexpected token after export: %q", p.tok.Lexeme)
		}
		if err != nil {
			return nil, err
		}
		return finish(p, p.arena.NewExportNamedDeclaration(ast.ExportNamedDeclaration{Declaration: inner}), start), nil
	}
}
