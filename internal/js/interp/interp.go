// Package interp is a sandboxed, deterministic tree-walking interpreter for
// the ES subset accepted by internal/js/parser. It exists as the execution
// half of the semantic-equivalence oracle (internal/oracle): programs run
// with fixed time, seeded randomness, capped step/alloc/depth budgets, and no
// I/O, so an original and a transformed program can be compared on observable
// output (console lines plus the final uncaught error, if any).
//
// Two failure channels are deliberately distinct:
//
//   - JavaScript exceptions propagate as ordinary values and can be caught by
//     JS try/catch; an uncaught one ends the run and is recorded on Result.
//   - Sandbox violations — exceeding a budget, or reaching a feature the
//     interpreter does not model — abort the run with *Abort. Budget overruns
//     are not catchable by the guest program; unsupported features carry a
//     stable feature name so callers can attribute skips.
package interp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

// Options bound one execution.
type Options struct {
	// MaxSteps caps interpreter steps (roughly, AST nodes evaluated). Zero
	// means 5,000,000.
	MaxSteps int
	// MaxDepth caps the JS call-stack depth. Exceeding it raises a
	// *catchable* RangeError, matching engines closely enough for the
	// debug-protection transform (which relies on catching stack overflow).
	// Zero means 200.
	MaxDepth int
	// MaxAlloc caps total string bytes + array/object slots allocated.
	// Zero means 64 MiB.
	MaxAlloc int
	// MaxLogs caps captured console lines. Zero means 10,000.
	MaxLogs int
	// MaxTimers caps how many queued timer callbacks run after the main
	// script. Zero means 64.
	MaxTimers int
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 5_000_000
	}
	return o.MaxSteps
}

func (o Options) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 200
	}
	return o.MaxDepth
}

func (o Options) maxAlloc() int {
	if o.MaxAlloc <= 0 {
		return 64 << 20
	}
	return o.MaxAlloc
}

func (o Options) maxLogs() int {
	if o.MaxLogs <= 0 {
		return 10_000
	}
	return o.MaxLogs
}

func (o Options) maxTimers() int {
	if o.MaxTimers <= 0 {
		return 64
	}
	return o.MaxTimers
}

// Result is the observable outcome of one run.
type Result struct {
	// Logs holds the captured console output, one line per console call
	// (arguments joined by single spaces).
	Logs []string
	// ErrorName is the constructor name of the uncaught exception that ended
	// the run ("TypeError", "RangeError", ...), or "" if the program
	// completed. Error *messages* are intentionally not part of the
	// observable surface: identifier renaming changes engine-generated
	// messages but not program semantics.
	ErrorName string
	// Steps is the number of interpreter steps consumed.
	Steps int
}

// Abort is the sandbox-violation error: a budget overrun or an unsupported
// language feature. Feature is a stable machine-readable name ("budget.steps",
// "feature.generator", ...).
type Abort struct {
	Feature string
	Detail  string
}

func (a *Abort) Error() string {
	if a.Detail == "" {
		return "interp: " + a.Feature
	}
	return "interp: " + a.Feature + ": " + a.Detail
}

// IsUnsupported reports whether the abort names a language feature outside
// the sandbox's subset (as opposed to a budget overrun).
func (a *Abort) IsUnsupported() bool { return strings.HasPrefix(a.Feature, "feature.") }

// jsThrow is the panic payload for in-language exceptions.
type jsThrow struct{ v Value }

// completion kinds for statement execution.
type completionKind int

const (
	completionNormal completionKind = iota
	completionReturn
	completionBreak
	completionContinue
)

type completion struct {
	kind  completionKind
	value Value  // return value
	label string // break/continue label, "" for unlabeled
}

var normalCompletion = completion{}

// env is one scope frame. Variable lookups walk the parent chain.
type env struct {
	vars    map[string]*binding
	parent  *env
	fnScope bool // true for function-body and global frames (var hoists here)
}

type binding struct {
	value   Value
	mutable bool
}

func newEnv(parent *env, fnScope bool) *env {
	return &env{vars: make(map[string]*binding, 8), parent: parent, fnScope: fnScope}
}

func (e *env) lookup(name string) (*binding, bool) {
	for s := e; s != nil; s = s.parent {
		if b, ok := s.vars[name]; ok {
			return b, true
		}
	}
	return nil, false
}

func (e *env) declare(name string, v Value, mutable bool) {
	e.vars[name] = &binding{value: v, mutable: mutable}
}

// declareVar declares a var in the nearest function scope (hoisting target),
// keeping an existing value if the name is already bound there.
func (e *env) declareVar(name string) *binding {
	s := e
	for !s.fnScope {
		s = s.parent
	}
	if b, ok := s.vars[name]; ok {
		return b
	}
	b := &binding{value: undef, mutable: true}
	s.vars[name] = b
	return b
}

// timer is one queued setTimeout/setInterval callback.
type timer struct {
	fn    *Object
	delay float64
	seq   int
}

// Interp executes one program. It is single-use and not safe for concurrent
// use.
type Interp struct {
	opts   Options
	global *env
	gobj   *Object // the global object (window/globalThis/this at top level)

	logs  []string
	steps int
	alloc int
	depth int

	timers     []timer
	timerSeq   int
	timersRun  int
	microtasks []func()

	randState uint64

	protos  protoSet
	funcSrc map[string]*ast.Program // Function-constructor compile cache
}

// protoSet holds the shared builtin prototypes and constructors.
type protoSet struct {
	objectProto   *Object
	arrayProto    *Object
	funcProto     *Object
	stringProto   *Object
	numberProto   *Object
	booleanProto  *Object
	regexpProto   *Object
	errorProto    *Object
	mapProto      *Object
	promiseProto  *Object
	iterProto     *Object
	objectCtor    *Object
	arrayCtor     *Object
	funcCtor      *Object
	stringCtor    *Object
	numberCtor    *Object
	booleanCtor   *Object
	regexpCtor    *Object
	mapCtor       *Object
	promiseCtor   *Object
	errorCtors    map[string]*Object // Error, TypeError, RangeError, ...
	errorProtos   map[string]*Object // per-kind prototypes chained to errorProto
	jsonObj       *Object
	mathObj       *Object
	consoleObj    *Object
	documentObj   *Object
	moduleObj     *Object
	argumentsName string
}

// Run parses and executes src under opts. The error is nil for completed runs
// and for runs ending in an uncaught JS exception (recorded on Result); it is
// a *Abort for budget overruns and unsupported features.
func Run(src string, opts Options) (res Result, err error) {
	prog, perr := parser.ParseProgram(src)
	if perr != nil {
		return Result{}, &Abort{Feature: "feature.parse", Detail: perr.Error()}
	}
	return RunProgram(prog, opts)
}

// RunProgram executes an already-parsed program under opts.
func RunProgram(prog *ast.Program, opts Options) (res Result, err error) {
	it := &Interp{opts: opts, randState: 0x9e3779b97f4a7c15, funcSrc: make(map[string]*ast.Program)}
	it.global = newEnv(nil, true)
	it.setupGlobals()

	defer func() {
		res.Logs = it.logs
		res.Steps = it.steps
		if r := recover(); r != nil {
			switch x := r.(type) {
			case jsThrow:
				res.ErrorName = it.errorName(x.v)
			case *Abort:
				err = x
			default:
				panic(r)
			}
		}
	}()

	it.runBody(prog.Body, it.global)
	it.drainMicrotasks()
	it.runTimers()
	return res, nil
}

// runBody hoists and executes a statement list as a program/function body.
func (it *Interp) runBody(body []ast.Node, e *env) completion {
	it.hoist(body, e)
	for _, stmt := range body {
		c := it.execStatement(stmt, e)
		if c.kind != completionNormal {
			return c
		}
	}
	return normalCompletion
}

// hoist declares function declarations (bound to their function objects) and
// var names (bound to undefined) into the appropriate scopes, walking nested
// statements but not nested functions.
func (it *Interp) hoist(body []ast.Node, e *env) {
	// Pass 1: var names throughout the body.
	for _, stmt := range body {
		it.hoistVars(stmt, e)
	}
	// Pass 2: function declarations at this level (statement position).
	for _, stmt := range body {
		if fd, ok := stmt.(*ast.FunctionDeclaration); ok && fd.ID != nil {
			fn := it.makeFunction(fd.Params, fd.Body, e, fd.ID.Name, fd)
			it.declareHoisted(e, fd.ID.Name, fn)
		}
	}
}

// declareHoisted binds a function declaration: at function-scope frames it
// targets the frame directly; in blocks, sloppy-mode function declarations
// are block-scoped here (close enough for the generated corpus).
func (it *Interp) declareHoisted(e *env, name string, v Value) {
	e.declare(name, v, true)
}

// hoistVars walks a statement, declaring every `var` name (and nested
// function-declaration statements inside blocks, loops, etc. keep their own
// hoisting at exec time).
func (it *Interp) hoistVars(n ast.Node, e *env) {
	switch s := n.(type) {
	case *ast.VariableDeclaration:
		if s.Kind != "var" {
			return
		}
		for _, d := range s.Declarations {
			for _, name := range patternNames(d.ID) {
				e.declareVar(name)
			}
		}
	case *ast.BlockStatement:
		for _, c := range s.Body {
			it.hoistVars(c, e)
		}
	case *ast.IfStatement:
		it.hoistVars(s.Consequent, e)
		if s.Alternate != nil {
			it.hoistVars(s.Alternate, e)
		}
	case *ast.WhileStatement:
		it.hoistVars(s.Body, e)
	case *ast.DoWhileStatement:
		it.hoistVars(s.Body, e)
	case *ast.ForStatement:
		if s.Init != nil {
			it.hoistVars(s.Init, e)
		}
		it.hoistVars(s.Body, e)
	case *ast.ForInStatement:
		it.hoistVars(s.Left, e)
		it.hoistVars(s.Body, e)
	case *ast.ForOfStatement:
		it.hoistVars(s.Left, e)
		it.hoistVars(s.Body, e)
	case *ast.TryStatement:
		it.hoistVars(s.Block, e)
		if s.Handler != nil {
			it.hoistVars(s.Handler.Body, e)
		}
		if s.Finalizer != nil {
			it.hoistVars(s.Finalizer, e)
		}
	case *ast.SwitchStatement:
		for _, cs := range s.Cases {
			for _, c := range cs.Consequent {
				it.hoistVars(c, e)
			}
		}
	case *ast.LabeledStatement:
		it.hoistVars(s.Body, e)
	}
}

// patternNames collects the bound identifier names of a binding pattern.
func patternNames(n ast.Node) []string {
	var out []string
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		switch p := n.(type) {
		case *ast.Identifier:
			out = append(out, p.Name)
		case *ast.ArrayPattern:
			for _, el := range p.Elements {
				if el != nil {
					walk(el)
				}
			}
		case *ast.ObjectPattern:
			for _, pr := range p.Properties {
				switch q := pr.(type) {
				case *ast.Property:
					walk(q.Value)
				case *ast.RestElement:
					walk(q.Argument)
				}
			}
		case *ast.AssignmentPattern:
			walk(p.Left)
		case *ast.RestElement:
			walk(p.Argument)
		}
	}
	walk(n)
	return out
}

// ---------------------------------------------------------------------------
// Budgets and panics
// ---------------------------------------------------------------------------

func (it *Interp) step() {
	it.steps++
	if it.steps > it.opts.maxSteps() {
		panic(&Abort{Feature: "budget.steps", Detail: fmt.Sprintf("exceeded %d steps", it.opts.maxSteps())})
	}
}

func (it *Interp) charge(n int) {
	it.alloc += n
	if it.alloc > it.opts.maxAlloc() {
		panic(&Abort{Feature: "budget.alloc", Detail: fmt.Sprintf("exceeded %d bytes", it.opts.maxAlloc())})
	}
}

func (it *Interp) unsupported(feature, detail string) {
	panic(&Abort{Feature: "feature." + feature, Detail: detail})
}

// throwError raises a catchable JS error of the given constructor name. The
// message must not mention program identifiers (renaming transforms must not
// change observable output); callers pass fixed phrasing only.
func (it *Interp) throwError(name, message string) {
	panic(jsThrow{it.newError(name, message)})
}

func (it *Interp) newError(name, message string) *Object {
	proto := it.protos.errorProto
	if p, ok := it.protos.errorProtos[name]; ok {
		proto = p
	}
	o := newObject("Error", proto)
	o.setProp("name", name)
	o.setProp("message", message)
	o.setProp("stack", name+": "+message)
	return o
}

// errorName extracts the observable error identity from a thrown value.
func (it *Interp) errorName(v Value) string {
	if o, ok := v.(*Object); ok && o.class == "Error" {
		if e, okk := o.getOwn("name"); okk {
			return it.toString(e.value)
		}
		return "Error"
	}
	// Thrown non-Error values are observed by type, not content: content may
	// legitimately differ across rename transforms only for engine-made
	// values, and user throws of primitives keep their type.
	return "throw:" + typeOf(v)
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

func (it *Interp) execStatement(n ast.Node, e *env) completion {
	it.step()
	switch s := n.(type) {
	case *ast.ExpressionStatement:
		it.eval(s.Expression, e)
		return normalCompletion
	case *ast.VariableDeclaration:
		it.execVarDecl(s, e)
		return normalCompletion
	case *ast.FunctionDeclaration:
		// Bound during hoisting.
		return normalCompletion
	case *ast.BlockStatement:
		inner := newEnv(e, false)
		it.hoist(s.Body, inner)
		for _, stmt := range s.Body {
			c := it.execStatement(stmt, inner)
			if c.kind != completionNormal {
				return c
			}
		}
		return normalCompletion
	case *ast.EmptyStatement, *ast.DebuggerStatement:
		return normalCompletion
	case *ast.IfStatement:
		if toBoolean(it.eval(s.Test, e)) {
			return it.execStatement(s.Consequent, e)
		}
		if s.Alternate != nil {
			return it.execStatement(s.Alternate, e)
		}
		return normalCompletion
	case *ast.ReturnStatement:
		v := Value(undef)
		if s.Argument != nil {
			v = it.eval(s.Argument, e)
		}
		return completion{kind: completionReturn, value: v}
	case *ast.ThrowStatement:
		panic(jsThrow{it.eval(s.Argument, e)})
	case *ast.WhileStatement:
		return it.execLoop("", e, nil, s.Test, nil, s.Body, false, nil)
	case *ast.DoWhileStatement:
		return it.execLoop("", e, nil, s.Test, nil, s.Body, true, nil)
	case *ast.ForStatement:
		return it.execFor("", s, e)
	case *ast.ForInStatement:
		return it.execForInOf("", s.Left, s.Right, s.Body, e, true)
	case *ast.ForOfStatement:
		return it.execForInOf("", s.Left, s.Right, s.Body, e, false)
	case *ast.BreakStatement:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		return completion{kind: completionBreak, label: label}
	case *ast.ContinueStatement:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		return completion{kind: completionContinue, label: label}
	case *ast.LabeledStatement:
		return it.execLabeled(s, e)
	case *ast.SwitchStatement:
		return it.execSwitch(s, e)
	case *ast.TryStatement:
		return it.execTry(s, e)
	case *ast.ClassDeclaration:
		if s.ID != nil {
			e.declare(s.ID.Name, it.evalClass(s.ID, s.SuperClass, s.Body, e), true)
		}
		return normalCompletion
	case *ast.WithStatement:
		it.unsupported("with", "")
	case *ast.ImportDeclaration, *ast.ExportNamedDeclaration,
		*ast.ExportDefaultDeclaration, *ast.ExportAllDeclaration:
		it.unsupported("module-declaration", n.NodeKind().String())
	default:
		it.unsupported("statement", n.NodeKind().String())
	}
	return normalCompletion
}

func (it *Interp) execVarDecl(s *ast.VariableDeclaration, e *env) {
	for _, d := range s.Declarations {
		var v Value = undef
		if d.Init != nil {
			v = it.eval(d.Init, e)
		}
		if s.Kind == "var" {
			if d.Init == nil {
				// `var x;` never clobbers an earlier value.
				for _, name := range patternNames(d.ID) {
					e.declareVar(name)
				}
				continue
			}
			it.bindPattern(d.ID, v, e, func(name string, val Value) {
				b := e.declareVar(name)
				b.value = val
			})
		} else {
			mutable := s.Kind != "const"
			it.bindPattern(d.ID, v, e, func(name string, val Value) {
				e.declare(name, val, mutable)
			})
		}
	}
}

// bindPattern destructures v against the binding pattern, calling bind for
// each bound name.
func (it *Interp) bindPattern(pat ast.Node, v Value, e *env, bind func(name string, v Value)) {
	switch p := pat.(type) {
	case *ast.Identifier:
		bind(p.Name, v)
	case *ast.AssignmentPattern:
		if _, isU := v.(Undefined); isU {
			v = it.eval(p.Right, e)
		}
		it.bindPattern(p.Left, v, e, bind)
	case *ast.ArrayPattern:
		elems := it.iterableToSlice(v)
		for i, el := range p.Elements {
			if el == nil {
				continue
			}
			if rest, ok := el.(*ast.RestElement); ok {
				tail := newObject("Array", it.protos.arrayProto)
				if i < len(elems) {
					tail.elems = append(tail.elems, elems[i:]...)
				}
				it.bindPattern(rest.Argument, Value(tail), e, bind)
				break
			}
			var ev Value = undef
			if i < len(elems) {
				ev = elems[i]
			}
			it.bindPattern(el, ev, e, bind)
		}
	case *ast.ObjectPattern:
		switch v.(type) {
		case Undefined, Null:
			it.throwError("TypeError", "cannot destructure")
		}
		taken := map[string]bool{}
		for _, prop := range p.Properties {
			switch q := prop.(type) {
			case *ast.Property:
				key := it.propertyKey(q.Key, q.Computed, e)
				taken[key] = true
				it.bindPattern(q.Value, it.getMember(v, key), e, bind)
			case *ast.RestElement:
				rest := newObject("Object", it.protos.objectProto)
				if o, ok := v.(*Object); ok {
					for _, k := range o.keys {
						if !taken[k] {
							rest.setProp(k, it.getMember(v, k))
						}
					}
				}
				it.bindPattern(q.Argument, Value(rest), e, bind)
			}
		}
	default:
		it.unsupported("pattern", pat.NodeKind().String())
	}
}

// iterableToSlice spreads an array-like/iterable value for destructuring,
// spread elements, and for-of.
func (it *Interp) iterableToSlice(v Value) []Value {
	switch x := v.(type) {
	case string:
		out := make([]Value, 0, len(x))
		for _, r := range x {
			out = append(out, string(r))
		}
		return out
	case *Object:
		switch x.class {
		case "Array", "Arguments", "ArrayIterator":
			return append([]Value(nil), x.elems...)
		case "Map":
			out := make([]Value, len(x.mapKeys))
			for i := range x.mapKeys {
				pair := newObject("Array", it.protos.arrayProto)
				pair.elems = []Value{x.mapKeys[i], x.mapVals[i]}
				out[i] = pair
			}
			return out
		}
		it.throwError("TypeError", "value is not iterable")
	default:
		it.throwError("TypeError", "value is not iterable")
	}
	return nil
}

// execLoop runs while/do-while (init/update nil) bodies with label handling.
func (it *Interp) execLoop(label string, e *env, init func(), test ast.Node, update func(*env), body ast.Node, doFirst bool, perIter []string) completion {
	if init != nil {
		init()
	}
	for iter := 0; ; iter++ {
		it.step()
		// do-while runs the body once before the first test; testing at the
		// top of iteration N is the same as testing after the body of N-1.
		if !(doFirst && iter == 0) {
			if test != nil && !toBoolean(it.eval(test, e)) {
				break
			}
		}
		c := it.execStatement(body, e)
		switch c.kind {
		case completionBreak:
			if c.label == "" || c.label == label {
				return normalCompletion
			}
			return c
		case completionContinue:
			if c.label != "" && c.label != label {
				return c
			}
		case completionReturn:
			return c
		}
		// `for (let ...)` gives every iteration fresh copies of the loop
		// bindings, so closures created in the body capture that iteration's
		// values. The copy happens after the body and before the update, per
		// the spec's CreatePerIterationEnvironment.
		if len(perIter) > 0 {
			next := newEnv(e.parent, false)
			for _, name := range perIter {
				if b, ok := e.vars[name]; ok {
					next.vars[name] = &binding{value: b.value, mutable: b.mutable}
				}
			}
			e = next
		}
		if update != nil {
			update(e)
		}
	}
	return normalCompletion
}

func (it *Interp) execFor(label string, s *ast.ForStatement, e *env) completion {
	inner := newEnv(e, false)
	var init func()
	var perIter []string
	if s.Init != nil {
		init = func() {
			if vd, ok := s.Init.(*ast.VariableDeclaration); ok {
				it.hoistVars(vd, inner)
				it.execVarDecl(vd, inner)
			} else {
				it.eval(s.Init, inner)
			}
		}
		if vd, ok := s.Init.(*ast.VariableDeclaration); ok && vd.Kind != "var" {
			for _, d := range vd.Declarations {
				perIter = append(perIter, patternNames(d.ID)...)
			}
		}
	}
	var update func(*env)
	if s.Update != nil {
		update = func(e *env) { it.eval(s.Update, e) }
	}
	return it.execLoop(label, inner, init, s.Test, update, s.Body, false, perIter)
}

func (it *Interp) execForInOf(label string, left, right, body ast.Node, e *env, isIn bool) completion {
	src := it.eval(right, e)
	var items []Value
	if isIn {
		switch x := src.(type) {
		case *Object:
			switch x.class {
			case "Array", "Arguments":
				for i := range x.elems {
					items = append(items, jsNumberString(float64(i)))
				}
			default:
				for _, k := range x.keys {
					items = append(items, k)
				}
			}
		case string:
			for i := range []rune(x) {
				items = append(items, jsNumberString(float64(i)))
			}
		default:
			// for-in over primitives/null/undefined iterates nothing.
		}
	} else {
		switch src.(type) {
		case Undefined, Null:
			it.throwError("TypeError", "value is not iterable")
		}
		items = it.iterableToSlice(src)
	}

	for _, item := range items {
		it.step()
		inner := newEnv(e, false)
		switch l := left.(type) {
		case *ast.VariableDeclaration:
			d := l.Declarations[0]
			if l.Kind == "var" {
				it.bindPattern(d.ID, item, inner, func(name string, v Value) {
					b := inner.declareVar(name)
					b.value = v
				})
			} else {
				it.bindPattern(d.ID, item, inner, func(name string, v Value) {
					inner.declare(name, v, l.Kind != "const")
				})
			}
		default:
			it.assignTo(left, item, inner)
		}
		c := it.execStatement(body, inner)
		switch c.kind {
		case completionBreak:
			if c.label == "" || c.label == label {
				return normalCompletion
			}
			return c
		case completionContinue:
			if c.label != "" && c.label != label {
				return c
			}
		case completionReturn:
			return c
		}
	}
	return normalCompletion
}

func (it *Interp) execLabeled(s *ast.LabeledStatement, e *env) completion {
	label := s.Label.Name
	var c completion
	switch body := s.Body.(type) {
	case *ast.WhileStatement:
		c = it.execLoop(label, e, nil, body.Test, nil, body.Body, false, nil)
	case *ast.DoWhileStatement:
		c = it.execLoop(label, e, nil, body.Test, nil, body.Body, true, nil)
	case *ast.ForStatement:
		c = it.execFor(label, body, e)
	case *ast.ForInStatement:
		c = it.execForInOf(label, body.Left, body.Right, body.Body, e, true)
	case *ast.ForOfStatement:
		c = it.execForInOf(label, body.Left, body.Right, body.Body, e, false)
	default:
		c = it.execStatement(s.Body, e)
	}
	if c.kind == completionBreak && c.label == label {
		return normalCompletion
	}
	return c
}

func (it *Interp) execSwitch(s *ast.SwitchStatement, e *env) completion {
	disc := it.eval(s.Discriminant, e)
	inner := newEnv(e, false)
	for _, cs := range s.Cases {
		for _, stmt := range cs.Consequent {
			it.hoistVars(stmt, inner)
		}
	}
	match := -1
	for i, cs := range s.Cases {
		if cs.Test == nil {
			continue
		}
		if strictEquals(disc, it.eval(cs.Test, inner)) {
			match = i
			break
		}
	}
	if match < 0 {
		for i, cs := range s.Cases {
			if cs.Test == nil {
				match = i
				break
			}
		}
	}
	if match < 0 {
		return normalCompletion
	}
	for _, cs := range s.Cases[match:] {
		for _, stmt := range cs.Consequent {
			c := it.execStatement(stmt, inner)
			switch c.kind {
			case completionBreak:
				if c.label == "" {
					return normalCompletion
				}
				return c
			case completionNormal:
			default:
				return c
			}
		}
	}
	return normalCompletion
}

func (it *Interp) execTry(s *ast.TryStatement, e *env) completion {
	// tryCatch runs the protected block, diverting JS throws (only) into the
	// handler when one is present. Sandbox aborts pass through untouched.
	tryCatch := func() completion {
		if s.Handler == nil {
			return it.execStatement(s.Block, e)
		}
		var c completion
		func() {
			defer func() {
				if r := recover(); r != nil {
					t, ok := r.(jsThrow)
					if !ok {
						panic(r)
					}
					inner := newEnv(e, false)
					if s.Handler.Param != nil {
						it.bindPattern(s.Handler.Param, t.v, inner, func(name string, v Value) {
							inner.declare(name, v, true)
						})
					}
					c = it.execStatement(s.Handler.Body, inner)
				}
			}()
			c = it.execStatement(s.Block, e)
		}()
		return c
	}

	if s.Finalizer == nil {
		return tryCatch()
	}

	var c completion
	var rethrow interface{}
	func() {
		defer func() { rethrow = recover() }()
		c = tryCatch()
	}()
	fc := it.execStatement(s.Finalizer, e)
	if rethrow != nil {
		if _, ok := rethrow.(jsThrow); !ok {
			panic(rethrow) // budget/feature aborts are not maskable by finally
		}
	}
	if fc.kind != completionNormal {
		return fc // an abrupt finally overrides the try/catch outcome
	}
	if rethrow != nil {
		panic(rethrow)
	}
	return c
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

func (it *Interp) makeFunction(params []ast.Node, body ast.Node, e *env, name string, node ast.Node) *Object {
	o := newObject("Function", it.protos.funcProto)
	o.fn = &funcInfo{params: params, body: body, env: e, node: node}
	o.name = name
	proto := newObject("Object", it.protos.objectProto)
	proto.setProp("constructor", Value(o))
	o.setProp("prototype", Value(proto))
	o.setProp("length", float64(len(params)))
	o.setProp("name", name)
	return o
}

func (it *Interp) makeArrow(a *ast.ArrowFunctionExpression, e *env) *Object {
	o := newObject("Function", it.protos.funcProto)
	o.fn = &funcInfo{params: a.Params, body: a.Body, env: e, isArrow: true, isExpr: a.Expression, node: a}
	o.setProp("length", float64(len(a.Params)))
	o.setProp("name", "")
	return o
}

func (it *Interp) makeNative(name string, arity int, fn nativeFunc) *Object {
	o := newObject("Function", it.protos.funcProto)
	o.native = fn
	o.name = name
	o.setProp("length", float64(arity))
	o.setProp("name", name)
	return o
}

// callFunction invokes fn with this and args; it returns the function result.
func (it *Interp) callFunction(fn *Object, this Value, args []Value) Value {
	if fn == nil || !fn.IsFunction() {
		it.throwError("TypeError", "value is not a function")
	}
	it.step()
	if fn.native != nil {
		return fn.native(it, this, args)
	}
	it.depth++
	if it.depth > it.opts.maxDepth() {
		it.depth--
		// Catchable, like a real engine's stack overflow.
		it.throwError("RangeError", "Maximum call stack size exceeded")
	}
	defer func() { it.depth-- }()

	info := fn.fn
	frame := newEnv(info.env, true)
	if !info.isArrow {
		frame.declare("this", it.coerceThis(this), false)
		argsObj := newObject("Arguments", it.protos.objectProto)
		argsObj.elems = append([]Value(nil), args...)
		argsObj.setProp("length", float64(len(args)))
		frame.declare("arguments", Value(argsObj), false)
		// Named function expressions can refer to themselves.
		if fe, ok := info.node.(*ast.FunctionExpression); ok && fe.ID != nil {
			frame.declare(fe.ID.Name, Value(fn), false)
		}
	}
	it.bindParams(info.params, args, frame)

	if info.isArrow && info.isExpr {
		return it.eval(info.body, frame)
	}
	block, ok := info.body.(*ast.BlockStatement)
	if !ok {
		it.unsupported("function-body", info.body.NodeKind().String())
	}
	c := it.runBody(block.Body, frame)
	if c.kind == completionReturn {
		return c.value
	}
	return undef
}

// coerceThis applies sloppy-mode this coercion: undefined/null become the
// global object; primitives are left as-is (primitive wrappers are out of
// subset, but method dispatch handles primitives separately).
func (it *Interp) coerceThis(this Value) Value {
	switch this.(type) {
	case Undefined, Null:
		return Value(it.gobj)
	}
	return this
}

func (it *Interp) bindParams(params []ast.Node, args []Value, frame *env) {
	for i, p := range params {
		if rest, ok := p.(*ast.RestElement); ok {
			tail := newObject("Array", it.protos.arrayProto)
			if i < len(args) {
				tail.elems = append(tail.elems, args[i:]...)
			}
			it.bindPattern(rest.Argument, Value(tail), frame, func(name string, v Value) {
				frame.declare(name, v, true)
			})
			return
		}
		var v Value = undef
		if i < len(args) {
			v = args[i]
		}
		it.bindPattern(p, v, frame, func(name string, v Value) {
			frame.declare(name, v, true)
		})
	}
}

// construct implements `new fn(args)`.
func (it *Interp) construct(fn *Object, args []Value) Value {
	if fn == nil || !fn.IsFunction() {
		it.throwError("TypeError", "value is not a constructor")
	}
	if fn.ctor != nil {
		return Value(fn.ctor(it, args))
	}
	if fn.native != nil {
		it.throwError("TypeError", "value is not a constructor")
	}
	if fn.fn.isArrow {
		it.throwError("TypeError", "value is not a constructor")
	}
	proto := it.protos.objectProto
	if pv, ok := fn.getOwn("prototype"); ok {
		if po, okk := pv.value.(*Object); okk {
			proto = po
		}
	}
	self := newObject("Object", proto)
	if len(fn.fn.classFields) > 0 {
		it.initClassFields(fn, self)
	}
	if fn.fn.implicitSuper && fn.fn.superCtor != nil {
		it.invokeSuper(fn.fn.superCtor, self, args)
	}
	r := it.callFunction(fn, Value(self), args)
	if ro, ok := r.(*Object); ok {
		return Value(ro)
	}
	return Value(self)
}

// invokeSuper runs a parent class constructor against an already-allocated
// instance: instance fields first, then any implicit super chain above it,
// then the constructor body itself. Native superclasses (e.g. extending a
// builtin) have no sandbox-visible body to run.
func (it *Interp) invokeSuper(super *Object, self *Object, args []Value) {
	if super.fn == nil {
		return
	}
	if len(super.fn.classFields) > 0 {
		it.initClassFields(super, self)
	}
	if super.fn.implicitSuper && super.fn.superCtor != nil {
		it.invokeSuper(super.fn.superCtor, self, args)
	}
	it.callFunction(super, Value(self), args)
}

// ---------------------------------------------------------------------------
// Timers and microtasks
// ---------------------------------------------------------------------------

func (it *Interp) drainMicrotasks() {
	for len(it.microtasks) > 0 {
		it.step()
		task := it.microtasks[0]
		it.microtasks = it.microtasks[1:]
		task()
	}
}

// runTimers fires queued timer callbacks deterministically: ordered by
// (delay, insertion sequence), each at most once (setInterval fires a single
// tick in the sandbox), with microtasks drained between callbacks. Uncaught
// exceptions inside timer callbacks propagate and end the run, like an
// unhandled error event.
func (it *Interp) runTimers() {
	for len(it.timers) > 0 && it.timersRun < it.opts.maxTimers() {
		sort.SliceStable(it.timers, func(i, j int) bool {
			if it.timers[i].delay != it.timers[j].delay {
				return it.timers[i].delay < it.timers[j].delay
			}
			return it.timers[i].seq < it.timers[j].seq
		})
		t := it.timers[0]
		it.timers = it.timers[1:]
		it.timersRun++
		it.callFunction(t.fn, undef, nil)
		it.drainMicrotasks()
	}
	it.timers = nil
}

func (it *Interp) addTimer(fn *Object, delay float64) float64 {
	it.timerSeq++
	if len(it.timers) < it.opts.maxTimers() {
		it.timers = append(it.timers, timer{fn: fn, delay: delay, seq: it.timerSeq})
	}
	return float64(it.timerSeq)
}

// nextRandom is a deterministic xorshift for Math.random.
func (it *Interp) nextRandom() float64 {
	x := it.randState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	it.randState = x
	return float64(x>>11) / float64(1<<53)
}

// log captures one console line.
func (it *Interp) log(args []Value) {
	if len(it.logs) >= it.opts.maxLogs() {
		panic(&Abort{Feature: "budget.logs", Detail: fmt.Sprintf("exceeded %d console lines", it.opts.maxLogs())})
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = it.renderTop(a)
		it.charge(len(parts[i]))
	}
	it.logs = append(it.logs, strings.Join(parts, " "))
}
