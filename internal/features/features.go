// Package features turns a JavaScript file into the fixed-dimension feature
// vector the detectors consume (Section III-B): hashed 4-gram frequencies
// over the AST's syntactic units, plus hand-picked features derived from an
// in-depth study of each transformation technique's syntactic trace.
package features

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/flow"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// Options configures extraction.
type Options struct {
	// NGramDims is the size of the hashed 4-gram bucket space. Zero means
	// the default of 1024.
	NGramDims int
	// RuleFeatures appends one dimension per static-analysis rule
	// (internal/analysis) carrying that rule's capped diagnostic count, so
	// the forests can consume the same explainable signals. Opt-in: it
	// changes the vector layout, so models must be trained and loaded with
	// the same setting.
	RuleFeatures bool
}

func (o Options) dims() int {
	if o.NGramDims <= 0 {
		return 1024
	}
	return o.NGramDims
}

// Dims returns the effective n-gram bucket count with the default applied.
// Model files embed it as part of the layout fingerprint.
func (o Options) Dims() int { return o.dims() }

// Vector is a dense feature vector.
type Vector []float64

// Extractor extracts feature vectors with a fixed layout.
type Extractor struct {
	opts Options
	// The rule layout is set only when opts.RuleFeatures is on.
	ruleNames []string
	ruleIndex map[string]int
}

// NewExtractor builds an extractor.
func NewExtractor(opts Options) *Extractor {
	e := &Extractor{opts: opts}
	if opts.RuleFeatures {
		e.ruleIndex = make(map[string]int)
		for i, r := range analysis.Default().Rules() {
			id := r.Info().ID
			e.ruleNames = append(e.ruleNames, "rule_"+strings.ReplaceAll(id, "-", "_"))
			e.ruleIndex[id] = i
		}
	}
	return e
}

// Dim returns the total vector dimension.
func (e *Extractor) Dim() int { return e.opts.dims() + numHandPicked + len(e.ruleNames) }

// Options returns the extractor's configuration. Batch callers compare it to
// decide whether two detectors can share one feature vector per file.
func (e *Extractor) Options() Options { return e.opts }

// Names returns human-readable names for every dimension.
func (e *Extractor) Names() []string {
	names := make([]string, 0, e.Dim())
	for i := 0; i < e.opts.dims(); i++ {
		names = append(names, fmt.Sprintf("ngram_bucket_%d", i))
	}
	names = append(names, handPickedNames[:]...)
	return append(names, e.ruleNames...)
}

// FlowSession builds the flow graph the extractor reads for res with the
// caller's reusable flow session: a scan worker holds one per worker, so
// graph storage is recycled across files. The returned graph aliases fs's
// storage and is invalidated by fs's next Build.
func (e *Extractor) FlowSession(fs *flow.Session, res *parser.Result) *flow.Graph {
	return fs.Build(res.Program)
}

// ExtractFull computes the feature vector of a parsed file from its flow
// graph g, which must not be nil, and its indicator diagnostics. diags is
// read only when the layout carries rule features; nil means the rules found
// nothing.
func (e *Extractor) ExtractFull(src string, res *parser.Result, g *flow.Graph, diags []analysis.Diagnostic) Vector {
	defer obs.Time("features.extract")()
	obs.Add("features.vectors", 1)
	vec := make(Vector, e.Dim())
	e.ngramFeatures(res, vec[:e.opts.dims()])
	handPicked(src, res, g, vec[e.opts.dims():e.opts.dims()+numHandPicked])
	ruleBlock := vec[e.opts.dims()+numHandPicked:]
	for _, d := range diags {
		if i, ok := e.ruleIndex[d.Rule]; ok {
			// Capped count normalized to [0, 1].
			ruleBlock[i] = capAt(ruleBlock[i]+0.25, 1)
		}
	}
	return vec
}

// NGramLen is the n-gram window length. The paper fixes it at 4; model files
// still record it in their fingerprint.
const NGramLen = 4

// ngramFeatures' per-call window memo has 1<<ngramMemoBits slots.
const (
	ngramMemoBits  = 12
	ngramMemoSlots = 1 << ngramMemoBits
)

// The memo packs a window's four kinds 8 bits each into one uint32 key, so
// the build fails here once ast.KindCount outgrows 8 bits.
var _ [256 - ast.KindCount]struct{}

// ngramMemoSlot maps a packed window key to its memo slot.
func ngramMemoSlot(key uint32) uint32 {
	return key * 0x9E3779B1 >> (32 - ngramMemoBits)
}

// ngramFeatures hashes sliding 4-gram windows over the pre-order sequence of
// AST node types into the bucket space and stores normalized frequencies.
//
// This is the hottest loop of the extraction stage, so it is written to not
// allocate: the pre-order kind stream comes straight from the parser's
// NodeID-stamping walk (Result.Kinds, pinned to an EachChild pre-order walk
// by ast.TestStamperKindStream), so there is no re-traversal. A window's
// bucket depends only on its four kinds, so a distinct window is hashed once
// per call unless a slot collision evicted it: a direct-mapped stack memo
// keyed by the four kinds packed into a uint32 holds the bucket, and only a
// miss runs the inlined FNV-1a byte loop over the precomputed per-kind byte
// table. A hit returns exactly
// what the miss computed, so the bucket assignment stays bit-identical to
// hashing the Type() strings with hash/fnv (each node contributes its type
// name followed by a 0 separator) — golden_test.go locks this, because every
// trained model's fingerprint depends on the bucket layout staying
// byte-stable.
//
//jslint:hotpath
func (e *Extractor) ngramFeatures(res *parser.Result, out []float64) {
	seq := res.Kinds
	if len(seq) < NGramLen {
		return
	}
	// A slot holds the key in its high half and bucket+1 in its low half,
	// so the zero slot is empty and no window reads it as a hit.
	var memo [ngramMemoSlots]uint64
	var key uint32
	for _, k := range seq[:NGramLen-1] {
		key = key<<8 | uint32(k)
	}
	for i := NGramLen - 1; i < len(seq); i++ {
		key = key<<8 | uint32(seq[i])
		slot := &memo[ngramMemoSlot(key)]
		var b int
		if *slot>>32 == uint64(key) && uint32(*slot) != 0 {
			b = int(uint32(*slot)) - 1
		} else {
			h := uint32(fnvOffset32)
			for _, k := range seq[i+1-NGramLen : i+1] {
				for _, c := range kindHashBytes[k] {
					h = (h ^ uint32(c)) * fnvPrime32
				}
			}
			b = int(h) % len(out)
			*slot = uint64(key)<<32 | uint64(b+1)
		}
		out[b]++
	}
	total := float64(len(seq) - (NGramLen - 1))
	for i := range out {
		out[i] /= total
	}
}

// FNV-1a parameters, matching hash/fnv's 32-bit variant.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// kindHashBytes maps each interned kind to the exact bytes the n-gram hash
// historically fed FNV-1a for one node: the ESTree type name plus the 0
// separator (a lone 0 for KindInvalid, which parsed streams never carry).
var kindHashBytes = func() [ast.KindCount][]byte {
	var tbl [ast.KindCount][]byte
	for k := ast.Kind(0); k < ast.KindCount; k++ {
		tbl[k] = append([]byte(ast.KindName(k)), 0)
	}
	return tbl
}()

// ---------------------------------------------------------------------------
// Hand-picked features
// ---------------------------------------------------------------------------

// handPickedNames documents every hand-picked dimension, in vector order.
var handPickedNames = [...]string{
	"ast_depth_per_line",
	"ast_breadth_per_line",
	"member_per_unique_identifier",
	"prop_call_expression",
	"prop_literal",
	"prop_identifier",
	"has_eval",
	"has_from_char_code",
	"has_atob_btoa",
	"has_escape_unescape",
	"has_decode_uri",
	"has_function_ctor",
	"has_set_interval_timeout",
	"debugger_count_norm",
	"string_op_per_call",
	"avg_identifier_length",
	"avg_chars_per_line",
	"max_chars_per_line_capped",
	"prop_ternary",
	"bracket_member_ratio",
	"avg_array_size",
	"prop_vars_fetched_from_arrays",
	"comment_char_ratio",
	"whitespace_ratio",
	"newline_per_byte",
	"avg_string_length",
	"string_char_ratio",
	"identifier_entropy",
	"hex_identifier_ratio",
	"short_identifier_ratio",
	"string_entropy",
	"encoded_string_ratio",
	"numeric_literal_ratio",
	"string_concat_chain_ratio",
	"avg_switch_cases",
	"while_true_switch",
	"pipe_split_strings",
	"debugger_string_count",
	"regex_literal_ratio",
	"control_edges_per_node",
	"data_edges_per_node",
	"function_density",
	"empty_catch_count",
	"alnum_char_ratio",
	"jsfuck_char_ratio",
	"max_expression_nesting",
	"largest_string_array",
	"indexed_accessor_call_ratio",
	"base64_string_ratio",
	"token_per_byte",
}

const numHandPicked = len(handPickedNames)

// handPicked fills out with the hand-picked feature block.
func handPicked(src string, res *parser.Result, g *flow.Graph, out []float64) {
	prog := res.Program
	set := func(name string, v float64) {
		for i, n := range handPickedNames[:] {
			if n == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				out[i] = v
				return
			}
		}
		panic("unknown hand-picked feature " + name)
	}

	// One pass over the bytes; an empty source still counts as one line.
	text := analysis.ComputeTextStats(src)
	lines, newlines := text.Lines, text.Lines-1
	if lines == 0 {
		lines, newlines = 1, 0
	}
	bytes := len(src)
	if bytes == 0 {
		bytes = 1
	}

	st := collectStats(prog, g.Scopes.Bindings)

	set("ast_depth_per_line", float64(st.depth)/float64(lines))
	set("ast_breadth_per_line", float64(st.breadth)/float64(lines))
	if st.uniqueIdents > 0 {
		set("member_per_unique_identifier", float64(st.memberCount)/float64(st.uniqueIdents))
	}
	nodes := float64(st.nodes)
	if nodes == 0 {
		nodes = 1
	}
	set("prop_call_expression", float64(st.callCount)/nodes)
	set("prop_literal", float64(st.literalCount)/nodes)
	set("prop_identifier", float64(st.identCount)/nodes)
	set("has_eval", b2f(st.builtins["eval"]))
	set("has_from_char_code", b2f(st.builtins["fromCharCode"]))
	set("has_atob_btoa", b2f(st.builtins["atob"] || st.builtins["btoa"]))
	set("has_escape_unescape", b2f(st.builtins["escape"] || st.builtins["unescape"]))
	set("has_decode_uri", b2f(st.builtins["decodeURIComponent"] || st.builtins["decodeURI"]))
	set("has_function_ctor", b2f(st.functionCtor > 0))
	set("has_set_interval_timeout", b2f(st.builtins["setInterval"] || st.builtins["setTimeout"]))
	set("debugger_count_norm", capAt(float64(st.debuggerCount)/10, 1))
	if st.callCount > 0 {
		set("string_op_per_call", float64(st.stringOps)/float64(st.callCount))
	}
	if st.identCount > 0 {
		set("avg_identifier_length", float64(st.identChars)/float64(st.identCount))
	}
	set("avg_chars_per_line", capAt(float64(bytes)/float64(lines)/500, 1))
	set("max_chars_per_line_capped", capAt(float64(text.MaxLine)/2000, 1))
	set("prop_ternary", float64(st.ternaryCount)/nodes)
	if st.memberCount > 0 {
		set("bracket_member_ratio", float64(st.bracketMember)/float64(st.memberCount))
	}
	if st.arrayCount > 0 {
		set("avg_array_size", capAt(float64(st.arrayElems)/float64(st.arrayCount)/50, 1))
	}
	if st.bindings > 0 {
		set("prop_vars_fetched_from_arrays", float64(st.arrayFetched)/float64(st.bindings))
	}
	set("comment_char_ratio", analysis.CommentRatio(res.Comments, bytes))
	set("whitespace_ratio", text.Whitespace)
	set("newline_per_byte", float64(newlines)/float64(bytes))
	if st.stringCount > 0 {
		set("avg_string_length", capAt(float64(st.stringChars)/float64(st.stringCount)/100, 1))
	}
	set("string_char_ratio", capAt(float64(st.stringChars)/float64(bytes), 1))
	set("identifier_entropy", st.identEntropy())
	if st.identCount > 0 {
		set("hex_identifier_ratio", float64(st.hexIdents)/float64(st.identCount))
		set("short_identifier_ratio", float64(st.shortIdents)/float64(st.identCount))
	}
	set("string_entropy", st.stringEntropy())
	if st.stringCount > 0 {
		set("encoded_string_ratio", float64(st.encodedStrings)/float64(st.stringCount))
		set("base64_string_ratio", float64(st.base64Strings)/float64(st.stringCount))
	}
	set("numeric_literal_ratio", float64(st.numberCount)/nodes)
	if st.binaryCount > 0 {
		set("string_concat_chain_ratio", float64(st.strConcat)/float64(st.binaryCount))
	}
	if st.switchCount > 0 {
		set("avg_switch_cases", capAt(float64(st.caseCount)/float64(st.switchCount)/20, 1))
	}
	set("while_true_switch", b2f(st.whileTrueSwitch > 0))
	set("pipe_split_strings", b2f(st.pipeSplit > 0))
	set("debugger_string_count", capAt(float64(st.debuggerStrings)/4, 1))
	set("regex_literal_ratio", float64(st.regexCount)/nodes)
	set("control_edges_per_node", float64(g.ControlEdges)/nodes)
	set("data_edges_per_node", float64(g.DataEdges)/nodes)
	set("function_density", float64(st.funcCount)/nodes)
	set("empty_catch_count", capAt(float64(st.emptyCatch)/4, 1))
	set("alnum_char_ratio", text.Alnum)
	set("jsfuck_char_ratio", text.JSFuck)
	set("max_expression_nesting", capAt(float64(st.maxExprNesting)/64, 1))
	set("largest_string_array", capAt(float64(st.largestStrArray)/64, 1))
	if st.callCount > 0 {
		set("indexed_accessor_call_ratio", float64(st.numericArgCalls)/float64(st.callCount))
	}
	set("token_per_byte", float64(res.NumTokens)/float64(bytes))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func capAt(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	if v < 0 {
		return 0
	}
	return v
}
