// Package triage is the stage-0 pre-classifier of the scan cascade: a few
// tight passes over a canonical copy of the source text compute cheap
// features (Shannon entropy, escape densities, dynamic-code token counts,
// line-shape statistics, base64/data-URI hits) and route high-confidence
// regular or plainly minified files around the full
// parse→flow→features→infer pipeline. The premise is the paper's own: most
// in-the-wild JavaScript is easy, and the expensive detectors only earn their
// cost on the hard tail.
//
// The router is deliberately conservative — any suspicion signal escalates —
// and its honesty is measured, not assumed: TestTriageFalseBypassGate in
// internal/core compares cascade verdicts against full-pipeline verdicts over
// the training corpus plus all ten transform outputs and fails the build when
// the disagreement rate on bypassed files reaches 1%.
//
// Features are computed over a canonicalized view of the text (CR dropped,
// horizontal whitespace runs collapsed to one space, trailing spaces
// stripped), so routing decisions are invariant under whitespace-only
// re-renderings of the same file: retabbing, re-indenting, or converting line
// endings never flips a decision. TestTriageWhitespaceInvariance pins that
// property. TestComputeMatchesReference and FuzzTriageCompute hold Compute to
// a byte-at-a-time reference implementation of the same features, bit for
// bit.
package triage

import (
	"bytes"
	"math"
	"slices"
	"sync"
)

// Decision is a stage-0 routing verdict.
type Decision int

const (
	// Escalate sends the file through the full pipeline: it is either
	// suspicious or not confidently classifiable from text shape alone.
	Escalate Decision = iota
	// BypassRegular skips the pipeline: the file is high-confidence regular.
	BypassRegular
	// BypassMinified skips the pipeline: the file is high-confidence
	// minified (and nothing suggests obfuscation on top).
	BypassMinified
)

// String names the decision for stats and logs.
func (d Decision) String() string {
	switch d {
	case BypassRegular:
		return "bypass-regular"
	case BypassMinified:
		return "bypass-minified"
	default:
		return "escalate"
	}
}

// Bypassed reports whether the decision routes around the full pipeline.
func (d Decision) Bypassed() bool { return d != Escalate }

// Features are the cheap single-pass text statistics the router decides on.
// All densities are per canonical byte; see the package comment for the
// canonical view.
type Features struct {
	// Bytes is the canonical text size; Lines the number of (non-empty or
	// empty) physical lines.
	Bytes int
	Lines int
	// MaxLineLen and MeanLineLen describe line shape after canonicalization:
	// minified files have one enormous line, regular files short ones.
	MaxLineLen  int
	MeanLineLen float64
	// WhitespaceRatio is the fraction of canonical bytes that are spaces or
	// newlines. Minifiers drive it toward zero.
	WhitespaceRatio float64
	// Entropy is the Shannon entropy of the canonical bytes, in bits.
	Entropy float64
	// AlnumRatio is the fraction of canonical bytes that are ASCII
	// letters or digits; symbol-soup encodings (no-alphanumeric) crater it.
	AlnumRatio float64
	// NonASCIIRatio is the fraction of canonical bytes >= 0x80.
	NonASCIIRatio float64
	// HexEscapes and UnicodeEscapes count \xNN and \uNNNN (or \u{...})
	// sequences; HexIdents counts _0x occurrences (the obfuscator-idiom
	// identifier prefix, also used by flattening dispatchers).
	HexEscapes     int
	UnicodeEscapes int
	HexIdents      int
	// EvalCount, FunctionCount, AtobCount count whole-word occurrences of
	// the dynamic-code sinks the paper's indicators key on.
	EvalCount     int
	FunctionCount int
	AtobCount     int
	// CaseCount counts whole-word `case` occurrences; flattened dispatch
	// loops inflate it far beyond hand-written switches.
	CaseCount int
	// Base64Runs counts maximal [A-Za-z0-9+/=]{24,} runs; DataURIHits
	// counts "base64," markers (data: URI payload signatures).
	Base64Runs  int
	DataURIHits int
	// ConstCmps counts equality comparisons whose both operands are
	// literals (`500 === 501`, `"xk" == "xq"`): the opaque-predicate idiom
	// dead-code injectors guard never-taken branches with. Hand-written
	// code compares variables, not constants.
	ConstCmps int
	// StrConcats counts `+` operators joining two string literals
	// (`"hel" + "lo"`): the split-and-concat idiom string obfuscators use
	// to keep literals out of plain text.
	StrConcats int
	// CharCodeHits counts `fromCharCode` occurrences: the paper's indicator
	// for character-code string encoding.
	CharCodeHits int
	// QuoteCalls counts method calls on string literals
	// (`"tcejbo".split("")...`): hand-written code rarely calls methods on
	// literals, reverse/join decoders always do.
	QuoteCalls int
	// PercentEscapes counts %XX hex pairs inside string literals: the
	// percent-encoding family of string obfuscators.
	PercentEscapes int
}

// density returns count per canonical kilobyte.
func (f *Features) density(count int) float64 {
	if f.Bytes == 0 {
		return 0
	}
	return float64(count) * 1024 / float64(f.Bytes)
}

// Score is the escalation propensity in [0, 1]: 0 means nothing about the
// text suggests obfuscation, 1 means overwhelming signal. Every component is
// a density or ratio, so transformations that add obfuscation signal can only
// raise it — the metamorphic property TestTriageMetamorphicEscalation pins.
// The router escalates at any positive score worth acting on
// (Config.MaxSuspicion), so Score doubles as the "how close to escalation"
// measurement the metamorphic test needs.
func (f *Features) Score() float64 {
	s := 0.0
	// Escape sequences: legitimate code has a handful; string-obfuscated
	// code has hundreds per KB. Saturates at ~4/KB.
	s += 0.25 * clamp01((f.density(f.HexEscapes)+f.density(f.UnicodeEscapes))/4)
	// Obfuscator-idiom identifiers (_0x...): any real density is damning.
	s += 0.25 * clamp01(f.density(f.HexIdents)/2)
	// Dynamic-code sinks per KB: eval / Function / atob.
	s += 0.2 * clamp01(f.density(f.EvalCount+f.FunctionCount+f.AtobCount)/2)
	// Dense case labels: flattening dispatchers produce switches with far
	// more arms per KB than hand-written code. Saturates at ~8/KB.
	s += 0.15 * clamp01(f.density(f.CaseCount)/8)
	// Base64 payloads and data: URIs.
	s += 0.15 * clamp01(f.density(f.Base64Runs)/1)
	s += 0.1 * clamp01(float64(f.DataURIHits))
	// Opaque predicates: even one literal-vs-literal equality in a few KB
	// is enough to escalate — nobody writes `500 === 501` by hand.
	s += 0.25 * clamp01(f.density(f.ConstCmps)/0.25)
	// Split-string concatenation chains.
	s += 0.2 * clamp01(f.density(f.StrConcats)/2)
	// Character-code decoding, method calls on string literals, and
	// percent-encoded payloads: the string-obfuscation decoder idioms.
	s += 0.2 * clamp01(f.density(f.CharCodeHits)/0.5)
	s += 0.2 * clamp01(f.density(f.QuoteCalls)/0.5)
	s += 0.2 * clamp01(f.density(f.PercentEscapes)/2)
	// Entropy outside the band of plain source text.
	s += 0.2 * clamp01((f.Entropy-5.1)/0.9)
	// Symbol soup: alphanumeric ratio collapses under no-alphanumeric
	// style encodings (JSFuck, aaencode).
	s += 0.3 * clamp01((0.38-f.AlnumRatio)/0.38)
	// Non-ASCII payloads (aaencode, packed unicode strings).
	s += 0.2 * clamp01(f.NonASCIIRatio/0.05)
	return clamp01(s)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Config tunes the router. The zero value uses the documented defaults,
// which the false-bypass gate in internal/core validates against the
// training corpus and all ten transform outputs.
type Config struct {
	// MaxSuspicion is the Score above which a file always escalates,
	// whatever its shape. <= 0 means DefaultMaxSuspicion.
	MaxSuspicion float64
	// MinBytes is the smallest file the router will bypass: tiny files are
	// cheap to scan and their text statistics are noise. <= 0 means
	// DefaultMinBytes.
	MinBytes int
	// MaxRegularLineLen is the longest canonical line a bypass-regular file
	// may have. <= 0 means DefaultMaxRegularLineLen.
	MaxRegularLineLen int
	// MinRegularWhitespace is the lowest whitespace ratio still considered
	// hand-formatted. <= 0 means DefaultMinRegularWhitespace.
	MinRegularWhitespace float64
	// MaxRegularEntropy bounds the entropy of a bypass-regular file.
	// <= 0 means DefaultMaxRegularEntropy.
	MaxRegularEntropy float64
	// MinMinifiedLineLen is the shortest max-line a bypass-minified file
	// may have. <= 0 means DefaultMinMinifiedLineLen.
	MinMinifiedLineLen int
	// MaxMinifiedWhitespace is the highest whitespace ratio a
	// bypass-minified file may have. <= 0 means DefaultMaxMinifiedWhitespace.
	MaxMinifiedWhitespace float64
}

// Router defaults; see Config.
const (
	DefaultMaxSuspicion          = 0.10
	DefaultMinBytes              = 64
	DefaultMaxRegularLineLen     = 300
	DefaultMinRegularWhitespace  = 0.10
	DefaultMaxRegularEntropy     = 5.2
	DefaultMinMinifiedLineLen    = 250
	DefaultMaxMinifiedWhitespace = 0.06
)

func (c Config) maxSuspicion() float64 {
	if c.MaxSuspicion <= 0 {
		return DefaultMaxSuspicion
	}
	return c.MaxSuspicion
}

func (c Config) minBytes() int {
	if c.MinBytes <= 0 {
		return DefaultMinBytes
	}
	return c.MinBytes
}

func (c Config) maxRegularLineLen() int {
	if c.MaxRegularLineLen <= 0 {
		return DefaultMaxRegularLineLen
	}
	return c.MaxRegularLineLen
}

func (c Config) minRegularWhitespace() float64 {
	if c.MinRegularWhitespace <= 0 {
		return DefaultMinRegularWhitespace
	}
	return c.MinRegularWhitespace
}

func (c Config) maxRegularEntropy() float64 {
	if c.MaxRegularEntropy <= 0 {
		return DefaultMaxRegularEntropy
	}
	return c.MaxRegularEntropy
}

func (c Config) minMinifiedLineLen() int {
	if c.MinMinifiedLineLen <= 0 {
		return DefaultMinMinifiedLineLen
	}
	return c.MinMinifiedLineLen
}

func (c Config) maxMinifiedWhitespace() float64 {
	if c.MaxMinifiedWhitespace <= 0 {
		return DefaultMaxMinifiedWhitespace
	}
	return c.MaxMinifiedWhitespace
}

// Route computes the features of src and decides where it goes. This is the
// whole stage-0 cost: one canonical copy of the text into a pooled buffer
// and a few counting passes over it, with no allocation once the pool is
// warm.
func Route(src string, cfg Config) (Decision, Features) {
	f := Compute(src)
	return cfg.Route(&f), f
}

// Route decides from already-computed features.
func (c Config) Route(f *Features) Decision {
	if f.Bytes < c.minBytes() {
		return Escalate
	}
	// Any obfuscation signal disqualifies both bypass routes: a bypass is
	// only ever granted to files with a near-zero suspicion score, so
	// applying an obfuscating transformation can remove a bypass but never
	// grant one.
	if f.Score() > c.maxSuspicion() {
		return Escalate
	}
	if f.MaxLineLen >= c.minMinifiedLineLen() && f.WhitespaceRatio <= c.maxMinifiedWhitespace() {
		return BypassMinified
	}
	if f.MaxLineLen <= c.maxRegularLineLen() &&
		f.WhitespaceRatio >= c.minRegularWhitespace() &&
		f.Entropy <= c.maxRegularEntropy() {
		return BypassRegular
	}
	return Escalate
}

// maxPooledCanon bounds the canonical-view buffers Compute keeps for reuse:
// a larger one is dropped after its call, so one huge input does not pin its
// size in memory for the life of the process.
const maxPooledCanon = 1 << 20

// canonPool holds the canonical-view scratch buffers.
var canonPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

// The two substring markers. Each one's first byte occurs nowhere else in
// it, so occurrences never overlap and bytes.Count counts exactly the hits
// of a matcher that restarts on the first byte.
var (
	dataURIMarker  = []byte("base64,")
	charCodeMarker = []byte("fromCharCode")
)

// Compute returns the features of src. It first copies the canonical view of
// the text into a pooled scratch buffer (CR dropped, each [ \t]+ run written
// as one space unless a newline or the end of the text follows), then counts
// over those bytes in separate tight passes: the byte histogram, a probe for
// long base64 runs, a newline search for line shape, a backslash search for
// escape sequences, substring counts for the two markers, and one
// token-level pass for strings, words, comparisons and percent escapes.
//
//jslint:hotpath
func Compute(src string) Features {
	bp := canonPool.Get().(*[]byte)
	c := canonicalize(*bp, src)

	var f Features
	f.Bytes = len(c)
	countBytes(c, &f)
	f.Base64Runs = countBase64Runs(c)
	countLines(c, src, &f)
	countEscapes(c, &f)
	f.DataURIHits = bytes.Count(c, dataURIMarker)
	f.CharCodeHits = bytes.Count(c, charCodeMarker)
	scanTokens(c, &f)

	if cap(c) <= maxPooledCanon {
		*bp = c[:0]
	}
	canonPool.Put(bp)
	return f
}

// Byte classes, as bit flags in byteClass.
const (
	clsWord    = 1 << iota // identifier bytes: [A-Za-z0-9_$]
	clsDigit               // [0-9]
	clsAlnum               // [A-Za-z0-9]
	clsHex                 // [0-9A-Fa-f]
	clsBase64              // the base64 alphabet [A-Za-z0-9+/=]
	clsStrStop             // bytes a string body stops at: % \ " ' LF
)

var byteClass = func() (t [256]uint8) {
	for b := 0; b < 256; b++ {
		var c uint8
		alpha := (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
		digit := b >= '0' && b <= '9'
		if alpha || digit {
			c |= clsWord | clsAlnum | clsBase64
		}
		if digit {
			c |= clsDigit
		}
		if digit || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F') {
			c |= clsHex
		}
		switch b {
		case '_', '$':
			c |= clsWord
		case '+', '/', '=':
			c |= clsBase64
		case '\n', '%', '\\', '"', '\'':
			c |= clsStrStop
		}
		t[b] = c
	}
	return t
}()

// canonStep tells canonicalize what each byte does, as bit flags.
const (
	canonKeep  = 1 << iota // written to the view: all but space, tab and CR
	canonFlush             // written after a pending space: all but space, tab, CR and LF
	canonBlank             // opens or continues a pending space: space and tab
	canonCarry             // a pending space survives it: CR
)

var canonStep = func() (t [256]uint8) {
	for b := range t {
		switch b {
		case ' ', '\t':
			t[b] = canonBlank
		case '\r':
			t[b] = canonCarry
		case '\n':
			t[b] = canonKeep
		default:
			t[b] = canonKeep | canonFlush
		}
	}
	return t
}()

// canonicalize writes the canonical view of src into buf's storage and
// returns it. The loop has no branch that depends on the bytes: each byte
// writes a space and then itself, and the table decides how far each write
// advances. The view is never longer than src, because a space is kept only
// in place of at least one dropped blank.
//
//jslint:hotpath
func canonicalize(buf []byte, src string) []byte {
	buf = slices.Grow(buf[:0], len(src))[:len(src)]
	k := 0
	pending := 0 // 1 while a [ \t] run awaits its one space
	for i := 0; i < len(src); i++ {
		b := src[i]
		step := int(canonStep[b])
		buf[k] = ' '
		k += pending & (step >> 1) // canonFlush
		buf[k] = b
		k += step & canonKeep
		pending = pending&(step>>3) | (step>>2)&1 // canonCarry, canonBlank
	}
	return buf[:k]
}

// countBytes fills the byte histogram and derives the whitespace,
// alphanumeric and non-ASCII ratios and the entropy from it.
//
//jslint:hotpath
func countBytes(c []byte, f *Features) {
	if len(c) == 0 {
		return
	}
	var hist [256]int32
	for _, b := range c {
		hist[b]++
	}
	alnum, nonASCII := 0, 0
	for b, n := range hist {
		if byteClass[b]&clsAlnum != 0 {
			alnum += int(n)
		} else if b >= 0x80 {
			nonASCII += int(n)
		}
	}
	total := float64(len(c))
	f.WhitespaceRatio = float64(int(hist[' '])+int(hist['\n'])) / total
	f.AlnumRatio = float64(alnum) / total
	f.NonASCIIRatio = float64(nonASCII) / total
	for _, n := range hist {
		if n == 0 {
			continue
		}
		p := float64(n) / total
		f.Entropy -= p * math.Log2(p)
	}
}

// minBase64Run is the shortest base64-alphabet run that counts as a payload.
const minBase64Run = 24

// countBase64Runs counts the maximal runs of the base64 alphabet at least
// minBase64Run bytes long. It probes the last byte of each window a long run
// starting at s would have to cover, so short runs (identifiers, numbers)
// cost a few probes per window instead of a step per byte.
//
//jslint:hotpath
func countBase64Runs(c []byte) int {
	runs := 0
	// c[s-1] is outside the alphabet (or s is 0), so a run starting at s
	// is maximal on the left; c[s:v] is known to be in the alphabet.
	s, v := 0, 0
	for s+minBase64Run <= len(c) {
		e := s + minBase64Run - 1
		if byteClass[c[e]]&clsBase64 == 0 {
			// No long run can start in c[s:e+1] without covering e.
			s, v = e+1, e+1
			continue
		}
		q := e - 1
		for q >= v && byteClass[c[q]]&clsBase64 != 0 {
			q--
		}
		if q >= v {
			// The run through e starts after q: probe again from there.
			s, v = q+1, e+1
			continue
		}
		runs++
		j := e + 1
		for j < len(c) && byteClass[c[j]]&clsBase64 != 0 {
			j++
		}
		s, v = j+1, j+1
	}
	return runs
}

// countLines measures line shape over the canonical bytes c. The last line
// counts when it has content, or when the raw text ends in something other
// than a newline (blanks the canonical view dropped).
//
//jslint:hotpath
func countLines(c []byte, src string, f *Features) {
	start := 0
	for {
		j := bytes.IndexByte(c[start:], '\n')
		if j < 0 {
			break
		}
		f.Lines++
		f.MaxLineLen = max(f.MaxLineLen, j)
		start += j + 1
	}
	if last := len(c) - start; last > 0 || (len(c) > 0 && src[len(src)-1] != '\n') {
		f.Lines++
		f.MaxLineLen = max(f.MaxLineLen, last)
	}
	if f.Lines > 0 {
		// Mean over canonical content bytes (newlines excluded).
		f.MeanLineLen = float64(len(c)-f.Lines) / float64(f.Lines)
		if f.MeanLineLen < 0 {
			f.MeanLineLen = 0
		}
	}
}

// countEscapes counts \xNN and \uNNNN (or \u{NNN) sequences. The escape
// matcher only ever leaves its idle state at a backslash, so the scan jumps
// from backslash to backslash and runs the matcher from each one until it
// is idle again.
//
//jslint:hotpath
func countEscapes(c []byte, f *Features) {
	for i := 0; ; {
		j := bytes.IndexByte(c[i:], '\\')
		if j < 0 {
			return
		}
		i += j + 1
		state := 1 // after a backslash; 2.. counts the x/u and hex digits
		hex := false
		for ; i < len(c) && state != 0; i++ {
			b := c[i]
			switch {
			case state == 1:
				switch b {
				case 'x', 'u':
					hex = b == 'x'
					state = 2
				case '\\':
					// \\\x still starts an escape at the second slash.
				default:
					state = 0
				}
			case byteClass[b]&clsHex == 0 && !(b == '{' && state == 2 && !hex):
				state = 0
				if b == '\\' {
					state = 1
				}
			default:
				state++
				if hex && state == 4 { // \xNN
					f.HexEscapes++
					state = 0
				} else if !hex && state == 6 { // \uNNNN (or \u{NNN)
					f.UnicodeEscapes++
					state = 0
				}
			}
		}
	}
}

// scanTokens is the token-level pass: it skips string bodies (counting
// their %XX escapes), scores each word run once, and runs the
// literal-operator-literal matcher over the bytes between them. Identifiers
// and operators inside a string are data, not code, so only the percent
// escapes are looked for there.
//
//jslint:hotpath
func scanTokens(c []byte, f *Features) {
	// The literal-operator-literal matcher for ConstCmps, StrConcats and
	// QuoteCalls. States: 0 idle, 1 literal just closed, 2 inside an
	// ==/===/!=/!== (or < <= > >=) run after a literal, 3 comparison
	// complete, 4 `+` seen after a string literal. A single canonical space
	// is transparent; anything else resets.
	state := 0
	litStr := false // the literal that opened the match was a string
	cmpLen := 0     // operator run length in state 2
	cmpRel := false // the state-2 run is relational (< >) rather than equality
	// taint marks that the next literal is glued to a larger expression by a
	// preceding arithmetic or bitwise operator (`row.id % 3 !== 0`): such a
	// literal is an operand, not the comparison's left side.
	taint := false
	n := len(c)
	for i := 0; i < n; {
		b := c[i]
		if cls := byteClass[b]; cls&clsWord != 0 {
			digit := cls&clsDigit != 0
			if digit && (state == 3 || (state == 2 && cmpValid(cmpRel, cmpLen))) {
				f.ConstCmps++
			}
			j := i + 1
			for j < n && byteClass[c[j]]&clsWord != 0 {
				j++
			}
			w := c[i:j]
			switch len(w) {
			case 4:
				switch string(w) { //jslint:ignore hotpath-noalloc a conversion only compared against constants does not allocate
				case "eval":
					f.EvalCount++
				case "atob":
					f.AtobCount++
				case "case":
					f.CaseCount++
				}
			case 8:
				if string(w) == "Function" { //jslint:ignore hotpath-noalloc a conversion only compared against a constant does not allocate
					f.FunctionCount++
				}
			}
			// _0x prefix: the obfuscator-idiom identifier family.
			if len(w) >= 3 && w[0] == '_' && w[1] == '0' && w[2] == 'x' {
				f.HexIdents++
			}
			// A token starting with a digit is a numeric literal: it can
			// open a literal-vs-literal comparison unless an operator glues
			// it to a larger expression. Identifiers are not literals.
			state = 0
			if digit && !taint {
				state = 1
				litStr = false
			}
			taint = false
			i = j
			continue
		}
		i++
		switch b {
		case '"', '\'':
			if state == 3 || (state == 2 && cmpValid(cmpRel, cmpLen)) {
				f.ConstCmps++
			} else if state == 4 && litStr {
				f.StrConcats++
			}
			state = 0
			i = skipString(c, i, b, f)
			switch {
			case i > n:
				return // unterminated at the end of the text
			case c[i-1] == '\n':
				// Unterminated on this line (template or desync).
			case taint:
				taint = false
			default:
				// The closed string can be the left operand of a
				// comparison, concatenation or method call.
				state = 1
				litStr = true
			}
		case ' ':
			if state == 2 {
				if cmpValid(cmpRel, cmpLen) {
					state = 3
				} else {
					state = 0
				}
			}
			// States 1, 3 and 4 see through a single canonical space.
		case '=', '!':
			switch state {
			case 1:
				state = 2
				cmpLen = 1
				cmpRel = false
			case 2:
				// A third = after < or > is past any comparison too, but
				// cmpValid already rejects that run.
				if b == '!' || cmpLen == 3 {
					state = 0
				} else {
					cmpLen++
				}
			default:
				state = 0
			}
		case '<', '>':
			if state == 1 && !litStr {
				state = 2
				cmpLen = 1
				cmpRel = true
			} else {
				// A second < or > is a shift (1 << 2), not a comparison.
				state = 0
				taint = true
			}
		case '.':
			if state == 1 && litStr {
				f.QuoteCalls++
			}
			state = 0
		case '+':
			switch {
			case state == 1 && litStr:
				state = 4
			case state == 1:
				state = 0 // numeric const chain: 1 + 2 === 3 stays constant
			default:
				state = 0
				taint = true
			}
		case '%', '*', '/', '-', '&', '|', '^':
			if state != 1 || litStr {
				taint = true
			}
			state = 0 // numeric const chain: 8 * 8 < 8 stays constant
		default:
			state = 0
		}
	}
}

// cmpValid reports whether an operator run of cmpLen bytes spells a
// comparison: ==, ===, != or !== when equality, < or <= (> or >=) when
// relational. A lone = is assignment; << and >> are shifts.
func cmpValid(rel bool, n int) bool {
	if rel {
		return n == 1 || n == 2
	}
	return n == 2 || n == 3
}

// skipString scans the body of a string literal opened by quote just before
// c[i], counting its %XX escapes, and returns the index just past the byte
// that ended it: the closing quote, or a newline for a string left
// unterminated on its line. It returns len(c)+1 when the text ends inside the
// string.
//
//jslint:hotpath
func skipString(c []byte, i int, quote byte, f *Features) int {
	for {
		for i < len(c) && byteClass[c[i]]&clsStrStop == 0 {
			i++
		}
		if i >= len(c) {
			return len(c) + 1
		}
		switch b := c[i]; b {
		case quote, '\n':
			return i + 1
		case '%':
			if i+2 < len(c) && byteClass[c[i+1]]&byteClass[c[i+2]]&clsHex != 0 {
				f.PercentEscapes++
				i += 3
			} else {
				i++
			}
		case '\\':
			// The escaped byte is consumed at once, whatever it is, but an
			// escaped % still opens a %XX escape.
			i++
			if i < len(c) && c[i] != '%' {
				i++
			}
		default:
			i++ // the other quote
		}
	}
}
