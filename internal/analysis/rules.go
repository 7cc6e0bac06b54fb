package analysis

import "repro/internal/js/ast"

// DefaultRules returns the built-in registry in canonical order. Rules are
// stateless (all per-file state lives in Start closures), so the returned
// values may be shared freely.
func DefaultRules() []Rule {
	return []Rule{
		ruleHexIdentifiers(),
		ruleEncodedStrings(),
		ruleStringArray(),
		ruleDynamicCodeSink(),
		ruleNoAlphanumeric(),
		ruleDeadBranch(),
		ruleSwitchDispatch(),
		ruleSelfDefending(),
		ruleDebuggerProtection(),
		ruleMinifiedSource(),
		ruleRenamedIdentifiers(),
	}
}

// ---------------------------------------------------------------------------
// Small AST helpers shared by the rules
// ---------------------------------------------------------------------------

// stringLit returns the decoded value of a string literal, or "", false.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralString {
		return "", false
	}
	return lit.String, true
}

// numberLit returns the value of a numeric literal, or 0, false.
func numberLit(n ast.Node) (float64, bool) {
	lit, ok := n.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralNumber {
		return 0, false
	}
	return lit.Number, true
}

// identName returns the name of an Identifier node, or "".
func identName(n ast.Node) string {
	if id, ok := n.(*ast.Identifier); ok {
		return id.Name
	}
	return ""
}

// memberProp returns the property name of a non-computed member access
// (`obj.prop`), or "".
func memberProp(n ast.Node) string {
	if m, ok := n.(*ast.MemberExpression); ok && !m.Computed {
		return identName(m.Property)
	}
	return ""
}

// isHexDigits reports whether s is non-empty and entirely hex digits.
func isHexDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isHexDigit(s[i]) {
			return false
		}
	}
	return true
}

// isHexIdentName matches the obfuscator's `_0x<hex>` naming scheme.
func isHexIdentName(name string) bool {
	return len(name) > 3 && name[0] == '_' && name[1] == '0' && name[2] == 'x' &&
		isHexDigits(name[3:])
}

// containsStringWith walks the small subtree under n (expressions only, no
// recursion into nested functions is needed for the patterns at hand) and
// reports whether any string literal satisfies pred. The scan is bounded to
// keep worst-case cost linear in the subtree size.
func containsStringWith(n ast.Node, pred func(string) bool) bool {
	found := false
	var visit func(ast.Node)
	visit = func(n ast.Node) {
		if found || n == nil {
			return
		}
		if s, ok := stringLit(n); ok && pred(s) {
			found = true
			return
		}
		ast.EachChild(n, visit)
	}
	visit(n)
	return found
}
