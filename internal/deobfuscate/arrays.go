package deobfuscate

import (
	"repro/internal/js/ast"
)

// resolveGlobalArrays undoes the global-array technique: it finds
//
//	var T = ["a", "b", ...];
//	function F(i) { return T[i - OFFSET]; }
//
// (with or without the accessor and offset), replaces F(n) calls and
// T[n] accesses with the referenced string literal, and drops the table and
// accessor once every reference has been resolved.
func resolveGlobalArrays(prog *ast.Program, r *Report) {
	tables := findStringTables(prog)
	if len(tables) == 0 {
		return
	}
	accessors := findAccessors(prog, tables)
	internal := accessorBodyAccesses(prog, accessors)

	// Pass 1: replace references.
	resolved := make(map[string]bool) // table names fully resolvable
	for name := range tables {
		resolved[name] = true
	}
	ast.Rewrite(prog, func(n ast.Node) ast.Node {
		switch v := n.(type) {
		case *ast.MemberExpression:
			// T[<number>] — but not the accessor's own body access.
			if !v.Computed || internal[v] {
				return n
			}
			obj, ok := v.Object.(*ast.Identifier)
			if !ok {
				return n
			}
			table, ok := tables[obj.Name]
			if !ok {
				return n
			}
			idx, ok := numLit(v.Property)
			if !ok || idx < 0 || idx >= len(table.values) {
				resolved[obj.Name] = false
				return n
			}
			r.ResolvedArrayRefs++
			return ast.NewString(table.values[idx])
		case *ast.CallExpression:
			// F(<number>)
			callee, ok := v.Callee.(*ast.Identifier)
			if !ok {
				return n
			}
			acc, ok := accessors[callee.Name]
			if !ok || len(v.Arguments) != 1 {
				return n
			}
			idx, ok := numLit(v.Arguments[0])
			if !ok {
				resolved[acc.table] = false
				return n
			}
			real := idx - acc.offset
			table := tables[acc.table]
			if real < 0 || real >= len(table.values) {
				resolved[acc.table] = false
				return n
			}
			r.ResolvedArrayRefs++
			return ast.NewString(table.values[real])
		}
		return n
	})

	// Pass 2: drop fully-resolved tables and their accessors if no other
	// references remain.
	remaining := make(map[string]int)
	ast.Inspect(prog, func(n ast.Node) bool {
		if id, ok := n.(*ast.Identifier); ok {
			remaining[id.Name]++
		}
		return true
	})
	removable := make(map[string]bool)
	for name, table := range tables {
		if !resolved[name] {
			continue
		}
		// The declaration itself counts one identifier occurrence; the
		// accessor body counts one more.
		uses := remaining[name]
		expected := 1
		acc := accessorOf(accessors, name)
		if acc != "" {
			expected = 2
			// The accessor may still be referenced (aliased, passed around,
			// or called with non-literal arguments that the rewrite left in
			// place); its only remaining occurrence must be its own
			// declaration.
			if remaining[acc] > 1 {
				continue
			}
		}
		if uses <= expected {
			removable[name] = true
			if acc != "" {
				removable[acc] = true
			}
			_ = table
		}
	}
	if len(removable) == 0 {
		return
	}
	var kept []ast.Node
	for _, stmt := range prog.Body {
		if name, ok := declaredTableName(stmt); ok && removable[name] {
			r.RemovedArrays++
			continue
		}
		if fn, ok := stmt.(*ast.FunctionDeclaration); ok && fn.ID != nil && removable[fn.ID.Name] {
			continue
		}
		kept = append(kept, stmt)
	}
	prog.Body = kept
}

// stringTable is one candidate global string array.
type stringTable struct {
	values []string
}

// findStringTables collects top-level `var X = ["...", ...]` declarations
// whose elements are all string literals.
func findStringTables(prog *ast.Program) map[string]*stringTable {
	tables := make(map[string]*stringTable)
	for _, stmt := range prog.Body {
		decl, ok := stmt.(*ast.VariableDeclaration)
		if !ok {
			continue
		}
		for _, d := range decl.Declarations {
			id, ok := d.ID.(*ast.Identifier)
			if !ok {
				continue
			}
			arr, ok := d.Init.(*ast.ArrayExpression)
			if !ok || len(arr.Elements) == 0 {
				continue
			}
			values := make([]string, 0, len(arr.Elements))
			allStrings := true
			for _, el := range arr.Elements {
				lit, ok := el.(*ast.Literal)
				if !ok || lit.Kind != ast.LiteralString {
					allStrings = false
					break
				}
				values = append(values, lit.String)
			}
			if allStrings && len(values) >= 1 {
				tables[id.Name] = &stringTable{values: values}
			}
		}
	}
	return tables
}

// accessorBodyAccesses collects the member expressions that ARE the
// accessors' return values, so the reference rewrite does not mistake them
// for unresolvable dynamic accesses.
func accessorBodyAccesses(prog *ast.Program, accessors map[string]accessorInfo) map[*ast.MemberExpression]bool {
	out := make(map[*ast.MemberExpression]bool)
	for _, stmt := range prog.Body {
		fn, ok := stmt.(*ast.FunctionDeclaration)
		if !ok || fn.ID == nil {
			continue
		}
		if _, isAccessor := accessors[fn.ID.Name]; !isAccessor {
			continue
		}
		ret := fn.Body.Body[0].(*ast.ReturnStatement)
		if m, ok := ret.Argument.(*ast.MemberExpression); ok {
			out[m] = true
		}
	}
	return out
}

// accessorInfo describes `function F(i) { return T[i - offset]; }`.
type accessorInfo struct {
	table  string
	offset int
}

// findAccessors matches top-level accessor functions over known tables.
func findAccessors(prog *ast.Program, tables map[string]*stringTable) map[string]accessorInfo {
	out := make(map[string]accessorInfo)
	for _, stmt := range prog.Body {
		fn, ok := stmt.(*ast.FunctionDeclaration)
		if !ok || fn.ID == nil || len(fn.Params) != 1 || fn.Body == nil || len(fn.Body.Body) != 1 {
			continue
		}
		param, ok := fn.Params[0].(*ast.Identifier)
		if !ok {
			continue
		}
		ret, ok := fn.Body.Body[0].(*ast.ReturnStatement)
		if !ok || ret.Argument == nil {
			continue
		}
		member, ok := ret.Argument.(*ast.MemberExpression)
		if !ok || !member.Computed {
			continue
		}
		tableID, ok := member.Object.(*ast.Identifier)
		if !ok {
			continue
		}
		if _, known := tables[tableID.Name]; !known {
			continue
		}
		offset, ok := accessorIndexOffset(member.Property, param.Name)
		if !ok {
			continue
		}
		out[fn.ID.Name] = accessorInfo{table: tableID.Name, offset: offset}
	}
	return out
}

// accessorIndexOffset matches `i`, `i - K`, or `i + K` and returns the
// offset such that table index = argument - offset.
func accessorIndexOffset(expr ast.Node, param string) (int, bool) {
	if isIdent(expr, param) {
		return 0, true
	}
	bin, ok := expr.(*ast.BinaryExpression)
	if !ok || !isIdent(bin.Left, param) {
		return 0, false
	}
	k, ok := numLit(bin.Right)
	if !ok {
		return 0, false
	}
	switch bin.Operator {
	case "-":
		return k, true
	case "+":
		return -k, true
	}
	return 0, false
}

func accessorOf(accessors map[string]accessorInfo, table string) string {
	for name, info := range accessors {
		if info.table == table {
			return name
		}
	}
	return ""
}

func declaredTableName(stmt ast.Node) (string, bool) {
	decl, ok := stmt.(*ast.VariableDeclaration)
	if !ok || len(decl.Declarations) != 1 {
		return "", false
	}
	id, ok := decl.Declarations[0].ID.(*ast.Identifier)
	if !ok {
		return "", false
	}
	if _, ok := decl.Declarations[0].Init.(*ast.ArrayExpression); !ok {
		return "", false
	}
	return id.Name, true
}

func numLit(n ast.Node) (int, bool) {
	lit, ok := n.(*ast.Literal)
	if !ok || lit.Kind != ast.LiteralNumber {
		return 0, false
	}
	v := int(lit.Number)
	if float64(v) != lit.Number {
		return 0, false
	}
	return v, true
}
