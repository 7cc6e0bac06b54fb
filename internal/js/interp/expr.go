package interp

import (
	"math"
	"strconv"

	"repro/internal/js/ast"
)

// eval evaluates one expression node.
func (it *Interp) eval(n ast.Node, e *env) Value {
	it.step()
	switch x := n.(type) {
	case *ast.Identifier:
		b, ok := e.lookup(x.Name)
		if !ok {
			// Properties set on the global object (globalThis.x = ...) are
			// readable as bare identifiers.
			if pe, okk := it.gobj.getOwn(x.Name); okk {
				return pe.value
			}
			// The message deliberately omits the name: identifier renaming
			// must not change observable output.
			it.throwError("ReferenceError", "identifier is not defined")
		}
		return b.value
	case *ast.Literal:
		return it.evalLiteral(x)
	case *ast.ThisExpression:
		if b, ok := e.lookup("this"); ok {
			return b.value
		}
		return Value(it.gobj)
	case *ast.ArrayExpression:
		arr := newObject("Array", it.protos.arrayProto)
		for _, el := range x.Elements {
			if el == nil {
				arr.elems = append(arr.elems, undef) // elision
				continue
			}
			if sp, ok := el.(*ast.SpreadElement); ok {
				arr.elems = append(arr.elems, it.iterableToSlice(it.eval(sp.Argument, e))...)
				continue
			}
			arr.elems = append(arr.elems, it.eval(el, e))
		}
		it.charge(len(arr.elems) + 1)
		return Value(arr)
	case *ast.ObjectExpression:
		return it.evalObjectLiteral(x, e)
	case *ast.FunctionExpression:
		name := ""
		if x.ID != nil {
			name = x.ID.Name
		}
		if x.Generator {
			it.unsupported("generator", "")
		}
		if x.Async {
			it.unsupported("async-function", "")
		}
		return Value(it.makeFunction(x.Params, x.Body, e, name, x))
	case *ast.ArrowFunctionExpression:
		if x.Async {
			it.unsupported("async-function", "")
		}
		return Value(it.makeArrow(x, e))
	case *ast.ClassExpression:
		return it.evalClass(x.ID, x.SuperClass, x.Body, e)
	case *ast.TemplateLiteral:
		out := ""
		for i, q := range x.Quasis {
			out += q.Cooked
			if i < len(x.Expressions) {
				out += it.toString(it.eval(x.Expressions[i], e))
			}
		}
		it.charge(len(out))
		return out
	case *ast.MemberExpression:
		if _, isSuper := x.Object.(*ast.Super); isSuper {
			sp := it.superProto(e)
			return it.protoGet(sp, it.currentThis(e), it.propertyKey(x.Property, x.Computed, e))
		}
		obj := it.eval(x.Object, e)
		if x.Optional {
			switch obj.(type) {
			case Undefined, Null:
				return undef
			}
		}
		return it.getMember(obj, it.propertyKey(x.Property, x.Computed, e))
	case *ast.CallExpression:
		return it.evalCall(x, e)
	case *ast.NewExpression:
		callee := it.eval(x.Callee, e)
		fn, ok := callee.(*Object)
		if !ok {
			it.throwError("TypeError", "value is not a constructor")
		}
		return it.construct(fn, it.evalArgs(x.Arguments, e))
	case *ast.UnaryExpression:
		return it.evalUnary(x, e)
	case *ast.UpdateExpression:
		return it.evalUpdate(x, e)
	case *ast.BinaryExpression:
		return it.evalBinary(x, e)
	case *ast.LogicalExpression:
		l := it.eval(x.Left, e)
		switch x.Operator {
		case "&&":
			if !toBoolean(l) {
				return l
			}
			return it.eval(x.Right, e)
		case "||":
			if toBoolean(l) {
				return l
			}
			return it.eval(x.Right, e)
		case "??":
			switch l.(type) {
			case Undefined, Null:
				return it.eval(x.Right, e)
			}
			return l
		}
		it.unsupported("operator", x.Operator)
	case *ast.AssignmentExpression:
		return it.evalAssignment(x, e)
	case *ast.ConditionalExpression:
		if toBoolean(it.eval(x.Test, e)) {
			return it.eval(x.Consequent, e)
		}
		return it.eval(x.Alternate, e)
	case *ast.SequenceExpression:
		var v Value = undef
		for _, sub := range x.Expressions {
			v = it.eval(sub, e)
		}
		return v
	case *ast.TaggedTemplateExpression:
		it.unsupported("tagged-template", "")
	case *ast.AwaitExpression:
		it.unsupported("await", "")
	case *ast.YieldExpression:
		it.unsupported("generator", "yield")
	case *ast.MetaProperty:
		it.unsupported("meta-property", x.Meta.Name+"."+x.Property.Name)
	case *ast.Super:
		it.unsupported("class-super", "")
	case *ast.SpreadElement:
		it.unsupported("spread-position", "")
	default:
		it.unsupported("expression", n.NodeKind().String())
	}
	return undef
}

func (it *Interp) evalLiteral(x *ast.Literal) Value {
	switch x.Kind {
	case ast.LiteralString:
		return x.String
	case ast.LiteralNumber:
		return x.Number
	case ast.LiteralBoolean:
		return x.Bool
	case ast.LiteralNull:
		return null
	case ast.LiteralRegExp:
		return Value(it.newRegexp(x.Regex.Pattern, x.Regex.Flags))
	}
	it.unsupported("literal", x.Raw)
	return undef
}

func (it *Interp) evalObjectLiteral(x *ast.ObjectExpression, e *env) Value {
	obj := newObject("Object", it.protos.objectProto)
	for _, pn := range x.Properties {
		switch p := pn.(type) {
		case *ast.Property:
			key := it.propertyKey(p.Key, p.Computed, e)
			switch p.Kind {
			case "get":
				fe := p.Value.(*ast.FunctionExpression)
				obj.setAccessor(key, it.makeFunction(fe.Params, fe.Body, e, key, fe), nil)
			case "set":
				fe := p.Value.(*ast.FunctionExpression)
				obj.setAccessor(key, nil, it.makeFunction(fe.Params, fe.Body, e, key, fe))
			default:
				obj.setProp(key, it.eval(p.Value, e))
			}
		case *ast.SpreadElement:
			src := it.eval(p.Argument, e)
			if so, ok := src.(*Object); ok {
				switch so.class {
				case "Array", "Arguments":
					for i, el := range so.elems {
						obj.setProp(jsNumberString(float64(i)), el)
					}
				default:
					for _, k := range so.keys {
						obj.setProp(k, it.getMember(src, k))
					}
				}
			}
		default:
			it.unsupported("object-member", pn.NodeKind().String())
		}
	}
	it.charge(len(obj.keys) + 1)
	return Value(obj)
}

// propertyKey resolves a member/property key to its string form.
func (it *Interp) propertyKey(key ast.Node, computed bool, e *env) string {
	if computed {
		return it.toString(it.eval(key, e))
	}
	switch k := key.(type) {
	case *ast.Identifier:
		return k.Name
	case *ast.Literal:
		return it.toString(it.evalLiteral(k))
	}
	it.unsupported("property-key", key.NodeKind().String())
	return ""
}

func (it *Interp) evalArgs(args []ast.Node, e *env) []Value {
	out := make([]Value, 0, len(args))
	for _, a := range args {
		if sp, ok := a.(*ast.SpreadElement); ok {
			out = append(out, it.iterableToSlice(it.eval(sp.Argument, e))...)
			continue
		}
		out = append(out, it.eval(a, e))
	}
	return out
}

func (it *Interp) evalCall(x *ast.CallExpression, e *env) Value {
	if _, isSuper := x.Callee.(*ast.Super); isSuper {
		sb, ok := e.lookup(superBinding)
		if !ok {
			it.unsupported("class-super", "super call outside a derived constructor")
		}
		super := sb.value.(*Object)
		self, okk := it.currentThis(e).(*Object)
		if !okk {
			it.throwError("TypeError", "super called without an instance")
		}
		it.invokeSuper(super, self, it.evalArgs(x.Arguments, e))
		return undef
	}
	var this Value = undef
	var callee Value
	if m, ok := x.Callee.(*ast.MemberExpression); ok {
		if _, isSuper := m.Object.(*ast.Super); isSuper {
			// super.m(...) resolves m on the parent prototype but keeps the
			// current instance as the receiver.
			this = it.currentThis(e)
			callee = it.protoGet(it.superProto(e), this, it.propertyKey(m.Property, m.Computed, e))
		} else {
			obj := it.eval(m.Object, e)
			if m.Optional {
				switch obj.(type) {
				case Undefined, Null:
					return undef
				}
			}
			this = obj
			callee = it.getMember(obj, it.propertyKey(m.Property, m.Computed, e))
		}
	} else {
		callee = it.eval(x.Callee, e)
	}
	if x.Optional {
		switch callee.(type) {
		case Undefined, Null:
			return undef
		}
	}
	fn, ok := callee.(*Object)
	if !ok || !fn.IsFunction() {
		it.throwError("TypeError", "value is not a function")
	}
	return it.callFunction(fn, this, it.evalArgs(x.Arguments, e))
}

func (it *Interp) evalUnary(x *ast.UnaryExpression, e *env) Value {
	if x.Operator == "typeof" {
		if id, ok := x.Argument.(*ast.Identifier); ok {
			if b, found := e.lookup(id.Name); found {
				return typeOf(b.value)
			}
			return "undefined" // typeof never throws on unresolved names
		}
		return typeOf(it.eval(x.Argument, e))
	}
	if x.Operator == "delete" {
		if m, ok := x.Argument.(*ast.MemberExpression); ok {
			obj := it.eval(m.Object, e)
			key := it.propertyKey(m.Property, m.Computed, e)
			if o, isObj := obj.(*Object); isObj {
				if (o.class == "Array" || o.class == "Arguments") && isArrayIndex(key) {
					i, _ := strconv.Atoi(key)
					if i < len(o.elems) {
						o.elems[i] = undef
					}
					return true
				}
				return o.deleteProp(key)
			}
			return true
		}
		it.eval(x.Argument, e)
		return true
	}
	v := it.eval(x.Argument, e)
	switch x.Operator {
	case "-":
		return -it.toNumber(v)
	case "+":
		return it.toNumber(v)
	case "!":
		return !toBoolean(v)
	case "~":
		return float64(^toInt32(it.toNumber(v)))
	case "void":
		return undef
	}
	it.unsupported("operator", x.Operator)
	return undef
}

func (it *Interp) evalUpdate(x *ast.UpdateExpression, e *env) Value {
	old := it.toNumber(it.evalRef(x.Argument, e))
	var next float64
	if x.Operator == "++" {
		next = old + 1
	} else {
		next = old - 1
	}
	it.assignTo(x.Argument, next, e)
	if x.Prefix {
		return next
	}
	return old
}

// evalRef evaluates an assignment target for read (update and compound ops).
func (it *Interp) evalRef(target ast.Node, e *env) Value {
	switch t := target.(type) {
	case *ast.Identifier:
		if b, ok := e.lookup(t.Name); ok {
			return b.value
		}
		it.throwError("ReferenceError", "identifier is not defined")
	case *ast.MemberExpression:
		obj := it.eval(t.Object, e)
		return it.getMember(obj, it.propertyKey(t.Property, t.Computed, e))
	}
	it.unsupported("assignment-target", target.NodeKind().String())
	return undef
}

func (it *Interp) evalBinary(x *ast.BinaryExpression, e *env) Value {
	l := it.eval(x.Left, e)
	r := it.eval(x.Right, e)
	switch x.Operator {
	case "+":
		lp, rp := l, r
		if o, ok := l.(*Object); ok {
			lp = it.toPrimitive(o, "default")
		}
		if o, ok := r.(*Object); ok {
			rp = it.toPrimitive(o, "default")
		}
		_, ls := lp.(string)
		_, rs := rp.(string)
		if ls || rs {
			s := it.toString(lp) + it.toString(rp)
			it.charge(len(s))
			return s
		}
		return it.toNumber(lp) + it.toNumber(rp)
	case "-":
		return it.toNumber(l) - it.toNumber(r)
	case "*":
		return it.toNumber(l) * it.toNumber(r)
	case "/":
		return it.toNumber(l) / it.toNumber(r)
	case "%":
		return math.Mod(it.toNumber(l), it.toNumber(r))
	case "**":
		return math.Pow(it.toNumber(l), it.toNumber(r))
	case "==":
		return it.looseEquals(l, r)
	case "!=":
		return !it.looseEquals(l, r)
	case "===":
		return strictEquals(l, r)
	case "!==":
		return !strictEquals(l, r)
	case "<":
		res, ok := it.lessThan(l, r)
		return ok && res
	case ">":
		res, ok := it.lessThan(r, l)
		return ok && res
	case "<=":
		res, ok := it.lessThan(r, l)
		return ok && !res
	case ">=":
		res, ok := it.lessThan(l, r)
		return ok && !res
	case "&":
		return float64(toInt32(it.toNumber(l)) & toInt32(it.toNumber(r)))
	case "|":
		return float64(toInt32(it.toNumber(l)) | toInt32(it.toNumber(r)))
	case "^":
		return float64(toInt32(it.toNumber(l)) ^ toInt32(it.toNumber(r)))
	case "<<":
		return float64(toInt32(it.toNumber(l)) << (toUint32(it.toNumber(r)) & 31))
	case ">>":
		return float64(toInt32(it.toNumber(l)) >> (toUint32(it.toNumber(r)) & 31))
	case ">>>":
		return float64(toUint32(it.toNumber(l)) >> (toUint32(it.toNumber(r)) & 31))
	case "in":
		o, ok := r.(*Object)
		if !ok {
			it.throwError("TypeError", "cannot use 'in' on a non-object")
		}
		return it.hasMember(o, it.toString(l))
	case "instanceof":
		fn, ok := r.(*Object)
		if !ok || !fn.IsFunction() {
			it.throwError("TypeError", "right-hand side is not callable")
		}
		lo, isObj := l.(*Object)
		if !isObj {
			return false
		}
		var protoVal Value = undef
		if pv, okk := fn.getOwn("prototype"); okk {
			protoVal = pv.value
		}
		po, okk := protoVal.(*Object)
		if !okk {
			return false
		}
		for p := lo.proto; p != nil; p = p.proto {
			if p == po {
				return true
			}
		}
		return false
	}
	it.unsupported("operator", x.Operator)
	return undef
}

func (it *Interp) evalAssignment(x *ast.AssignmentExpression, e *env) Value {
	if x.Operator == "=" {
		v := it.eval(x.Right, e)
		it.assignTo(x.Left, v, e)
		return v
	}
	// Logical assignment short-circuits; arithmetic compounds read-modify-write.
	switch x.Operator {
	case "&&=":
		cur := it.evalRef(x.Left, e)
		if !toBoolean(cur) {
			return cur
		}
		v := it.eval(x.Right, e)
		it.assignTo(x.Left, v, e)
		return v
	case "||=":
		cur := it.evalRef(x.Left, e)
		if toBoolean(cur) {
			return cur
		}
		v := it.eval(x.Right, e)
		it.assignTo(x.Left, v, e)
		return v
	case "??=":
		cur := it.evalRef(x.Left, e)
		switch cur.(type) {
		case Undefined, Null:
			v := it.eval(x.Right, e)
			it.assignTo(x.Left, v, e)
			return v
		}
		return cur
	}
	cur := it.evalRef(x.Left, e)
	r := it.eval(x.Right, e)
	v := it.applyBinaryValues(x.Operator[:len(x.Operator)-1], cur, r)
	it.assignTo(x.Left, v, e)
	return v
}

// applyBinaryValues applies a binary operator to already-evaluated operands
// (compound assignment).
func (it *Interp) applyBinaryValues(op string, l, r Value) Value {
	switch op {
	case "+":
		lp, rp := l, r
		if o, ok := l.(*Object); ok {
			lp = it.toPrimitive(o, "default")
		}
		if o, ok := r.(*Object); ok {
			rp = it.toPrimitive(o, "default")
		}
		_, ls := lp.(string)
		_, rs := rp.(string)
		if ls || rs {
			s := it.toString(lp) + it.toString(rp)
			it.charge(len(s))
			return s
		}
		return it.toNumber(lp) + it.toNumber(rp)
	case "-":
		return it.toNumber(l) - it.toNumber(r)
	case "*":
		return it.toNumber(l) * it.toNumber(r)
	case "/":
		return it.toNumber(l) / it.toNumber(r)
	case "%":
		return math.Mod(it.toNumber(l), it.toNumber(r))
	case "**":
		return math.Pow(it.toNumber(l), it.toNumber(r))
	case "&":
		return float64(toInt32(it.toNumber(l)) & toInt32(it.toNumber(r)))
	case "|":
		return float64(toInt32(it.toNumber(l)) | toInt32(it.toNumber(r)))
	case "^":
		return float64(toInt32(it.toNumber(l)) ^ toInt32(it.toNumber(r)))
	case "<<":
		return float64(toInt32(it.toNumber(l)) << (toUint32(it.toNumber(r)) & 31))
	case ">>":
		return float64(toInt32(it.toNumber(l)) >> (toUint32(it.toNumber(r)) & 31))
	case ">>>":
		return float64(toUint32(it.toNumber(l)) >> (toUint32(it.toNumber(r)) & 31))
	}
	it.unsupported("operator", op+"=")
	return undef
}

// assignTo writes v into an assignment target: identifier, member, or a
// destructuring pattern (assignment position).
func (it *Interp) assignTo(target ast.Node, v Value, e *env) {
	switch t := target.(type) {
	case *ast.Identifier:
		if b, ok := e.lookup(t.Name); ok {
			if !b.mutable {
				it.throwError("TypeError", "assignment to constant variable")
			}
			b.value = v
			return
		}
		// Sloppy mode: assignment to an undeclared name creates a global.
		it.global.declare(t.Name, v, true)
	case *ast.MemberExpression:
		obj := it.eval(t.Object, e)
		it.setMember(obj, it.propertyKey(t.Property, t.Computed, e), v)
	case *ast.ArrayPattern, *ast.ObjectPattern, *ast.AssignmentPattern:
		it.bindPattern(target, v, e, func(name string, val Value) {
			it.assignTo(ast.NewIdentifier(name), val, e)
		})
	default:
		it.unsupported("assignment-target", target.NodeKind().String())
	}
}

// ---------------------------------------------------------------------------
// Member access
// ---------------------------------------------------------------------------

func isArrayIndex(key string) bool {
	if key == "" || (len(key) > 1 && key[0] == '0') {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return false
		}
	}
	return true
}

// getMember implements property access on any value, including primitive
// method dispatch through the builtin prototypes.
func (it *Interp) getMember(v Value, key string) Value {
	it.step()
	switch x := v.(type) {
	case Undefined:
		it.throwError("TypeError", "cannot read properties of undefined")
	case Null:
		it.throwError("TypeError", "cannot read properties of null")
	case string:
		if key == "length" {
			return float64(len([]rune(x)))
		}
		if isArrayIndex(key) {
			i, _ := strconv.Atoi(key)
			rs := []rune(x)
			if i < len(rs) {
				return string(rs[i])
			}
			return undef
		}
		return it.protoGet(it.protos.stringProto, v, key)
	case float64:
		return it.protoGet(it.protos.numberProto, v, key)
	case bool:
		return it.protoGet(it.protos.booleanProto, v, key)
	case *Object:
		if x.class == "Array" || x.class == "Arguments" {
			if key == "length" {
				return float64(len(x.elems))
			}
			if isArrayIndex(key) {
				i, _ := strconv.Atoi(key)
				if i < len(x.elems) {
					el := x.elems[i]
					if el == nil {
						return undef
					}
					return el
				}
				return undef
			}
		}
		for o := x; o != nil; o = o.proto {
			if e, ok := o.getOwn(key); ok {
				if e.getter != nil {
					return it.callFunction(e.getter, v, nil)
				}
				if e.getter == nil && e.setter != nil {
					return undef
				}
				return e.value
			}
		}
		return undef
	}
	return undef
}

// protoGet resolves a primitive's property through its builtin prototype.
func (it *Interp) protoGet(proto *Object, receiver Value, key string) Value {
	for o := proto; o != nil; o = o.proto {
		if e, ok := o.getOwn(key); ok {
			if e.getter != nil {
				return it.callFunction(e.getter, receiver, nil)
			}
			return e.value
		}
	}
	return undef
}

func (it *Interp) hasMember(o *Object, key string) bool {
	if (o.class == "Array" || o.class == "Arguments") && isArrayIndex(key) {
		i, _ := strconv.Atoi(key)
		return i < len(o.elems)
	}
	for p := o; p != nil; p = p.proto {
		if _, ok := p.getOwn(key); ok {
			return true
		}
	}
	return false
}

// setMember implements property assignment. Writes to primitives are
// silently dropped (sloppy mode).
func (it *Interp) setMember(v Value, key string, val Value) {
	it.step()
	switch x := v.(type) {
	case Undefined:
		it.throwError("TypeError", "cannot set properties of undefined")
	case Null:
		it.throwError("TypeError", "cannot set properties of null")
	case *Object:
		if x.frozen {
			return // sloppy mode: writes to frozen objects are ignored
		}
		if x.class == "Array" || x.class == "Arguments" {
			if key == "length" {
				n := int(it.toNumber(val))
				if n < 0 {
					it.throwError("RangeError", "invalid array length")
				}
				for len(x.elems) < n {
					x.elems = append(x.elems, undef)
				}
				x.elems = x.elems[:n]
				return
			}
			if isArrayIndex(key) {
				i, _ := strconv.Atoi(key)
				if i > 1<<24 {
					panic(&Abort{Feature: "budget.alloc", Detail: "array index too large"})
				}
				for len(x.elems) <= i {
					x.elems = append(x.elems, undef)
				}
				it.charge(1)
				x.elems[i] = val
				return
			}
		}
		// A setter anywhere on the chain intercepts the write; a data
		// property just shadows (own write below).
		for o := x; o != nil; o = o.proto {
			if e, ok := o.getOwn(key); ok {
				if e.getter != nil || e.setter != nil {
					if e.setter != nil {
						it.callFunction(e.setter, v, []Value{val})
					}
					return
				}
				break
			}
		}
		it.charge(1)
		x.setProp(key, val)
	}
}

// ---------------------------------------------------------------------------
// Classes
// ---------------------------------------------------------------------------

// superBinding is the hidden frame slot derived-class methods close over to
// reach their parent constructor; the % makes collision with a JS identifier
// impossible.
const superBinding = "%super%"

// superProto returns the parent class's prototype object for super member
// resolution, aborting if super appears outside a derived class.
func (it *Interp) superProto(e *env) *Object {
	sb, ok := e.lookup(superBinding)
	if !ok {
		it.unsupported("class-super", "super outside a derived class")
	}
	super := sb.value.(*Object)
	if pv, okk := super.getOwn("prototype"); okk {
		if po, ok3 := pv.value.(*Object); ok3 {
			return po
		}
	}
	return it.protos.objectProto
}

// currentThis resolves the lexical `this` of the executing method.
func (it *Interp) currentThis(e *env) Value {
	if b, ok := e.lookup("this"); ok {
		return b.value
	}
	return undef
}

func (it *Interp) evalClass(id *ast.Identifier, superClass ast.Node, body *ast.ClassBody, e *env) Value {
	var superCtor *Object
	if superClass != nil {
		sv := it.eval(superClass, e)
		so, ok := sv.(*Object)
		if !ok || !so.IsFunction() {
			it.throwError("TypeError", "class heritage is not a constructor")
		}
		superCtor = so
	}
	name := ""
	if id != nil {
		name = id.Name
	}
	// Methods of a derived class close over a frame that knows the parent
	// constructor, so `super(...)` and `super.m(...)` can resolve it.
	if superCtor != nil {
		e = newEnv(e, false)
		e.declare(superBinding, Value(superCtor), false)
	}

	var ctorDef *ast.MethodDefinition
	var fields []*ast.PropertyDefinition
	for _, m := range body.Body {
		if md, ok := m.(*ast.MethodDefinition); ok && md.Kind == "constructor" {
			ctorDef = md
		}
		if pd, ok := m.(*ast.PropertyDefinition); ok && !pd.Static {
			fields = append(fields, pd)
		}
	}

	var ctor *Object
	if ctorDef != nil {
		ctor = it.makeFunction(ctorDef.Value.Params, ctorDef.Value.Body, e, name, ctorDef.Value)
	} else {
		ctor = it.makeFunction(nil, &ast.BlockStatement{}, e, name, nil)
	}
	ctor.fn.classFields = fields

	protoVal, _ := ctor.getOwn("prototype")
	proto := protoVal.value.(*Object)

	if superCtor != nil {
		ctor.fn.superCtor = superCtor
		ctor.fn.implicitSuper = ctorDef == nil
		// Static members are inherited through the constructor chain, and
		// instances see parent methods through the prototype chain.
		ctor.proto = superCtor
		if spv, ok := superCtor.getOwn("prototype"); ok {
			if spo, okk := spv.value.(*Object); okk {
				proto.proto = spo
			}
		}
	}

	for _, m := range body.Body {
		switch md := m.(type) {
		case *ast.MethodDefinition:
			if md.Kind == "constructor" {
				continue
			}
			key := it.propertyKey(md.Key, md.Computed, e)
			fn := it.makeFunction(md.Value.Params, md.Value.Body, e, key, md.Value)
			target := proto
			if md.Static {
				target = ctor
			}
			switch md.Kind {
			case "get":
				target.setAccessor(key, fn, nil)
			case "set":
				target.setAccessor(key, nil, fn)
			default:
				target.setProp(key, Value(fn))
			}
		case *ast.PropertyDefinition:
			if !md.Static {
				continue
			}
			key := it.propertyKey(md.Key, md.Computed, e)
			var v Value = undef
			if md.Value != nil {
				v = it.eval(md.Value, e)
			}
			ctor.setProp(key, v)
		}
	}
	return Value(ctor)
}

// initClassFields evaluates instance field initializers on a freshly
// constructed object, before the constructor body runs.
func (it *Interp) initClassFields(fn *Object, self *Object) {
	for _, pd := range fn.fn.classFields {
		frame := newEnv(fn.fn.env, true)
		frame.declare("this", Value(self), false)
		key := it.propertyKey(pd.Key, pd.Computed, frame)
		var v Value = undef
		if pd.Value != nil {
			v = it.eval(pd.Value, frame)
		}
		self.setProp(key, v)
	}
}
