package triage

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/transform"
)

// computeRef is the byte-at-a-time feature pass Compute is checked against:
// a pending-space state machine feeds the histogram, the line accounting and
// the token matchers one canonical byte at a time, without materializing the
// canonical view. Compute must return exactly the same Features.
func computeRef(src string) Features {
	var f Features
	var hist [256]int32

	canon := 0    // canonical bytes emitted
	wsBytes := 0  // canonical whitespace bytes (space or \n)
	alnum := 0    // canonical ASCII alphanumeric bytes
	nonASCII := 0 // canonical bytes >= 0x80
	lineLen := 0  // current canonical line length
	pendingWS := false
	m := refMatchState{}

	emit := func(b byte) {
		hist[b]++
		canon++
		switch {
		case b == ' ':
			wsBytes++
			lineLen++
		case b == '\n':
			wsBytes++
			f.Lines++
			if lineLen > f.MaxLineLen {
				f.MaxLineLen = lineLen
			}
			lineLen = 0
		default:
			lineLen++
			if b >= 0x80 {
				nonASCII++
			} else if isAlnumByte(b) {
				alnum++
			}
		}
		m.feed(b, &f)
	}

	for i := 0; i < len(src); i++ {
		b := src[i]
		switch b {
		case '\r':
			// dropped: CRLF and LF render identically.
		case ' ', '\t':
			pendingWS = true
		case '\n':
			pendingWS = false // trailing whitespace stripped
			emit('\n')
		default:
			if pendingWS {
				emit(' ')
				pendingWS = false
			}
			emit(b)
		}
	}
	if lineLen > 0 || (canon > 0 && src[len(src)-1] != '\n') {
		f.Lines++
		if lineLen > f.MaxLineLen {
			f.MaxLineLen = lineLen
		}
	}
	m.flush(&f)

	f.Bytes = canon
	if canon == 0 {
		return f
	}
	f.WhitespaceRatio = float64(wsBytes) / float64(canon)
	f.AlnumRatio = float64(alnum) / float64(canon)
	f.NonASCIIRatio = float64(nonASCII) / float64(canon)
	if f.Lines > 0 {
		// Mean over canonical content bytes (newlines excluded).
		f.MeanLineLen = float64(canon-f.Lines) / float64(f.Lines)
		if f.MeanLineLen < 0 {
			f.MeanLineLen = 0
		}
	}
	total := float64(canon)
	for _, n := range hist {
		if n == 0 {
			continue
		}
		p := float64(n) / total
		f.Entropy -= p * math.Log2(p)
	}
	return f
}

// refMatchState runs the token matchers over the canonical byte stream: word
// matching for eval/Function/atob/case, escape sequences, _0x prefixes,
// base64 runs, and the "base64," data-URI marker.
type refMatchState struct {
	prevWord bool // previous byte was a word byte (identifier continuation)
	word     [8]byte
	wordLen  int // 0..8; 9 means "too long, not a keyword"

	escape int // position in a \xNN or \uNNNN match; 0 = idle
	escHex bool

	b64Run int // current [A-Za-z0-9+/=] run length

	uriPos int // position in "base64," marker

	inStr  byte // 0 = outside any string literal, else the quote byte
	strEsc bool // inside a string, previous byte was an unconsumed backslash

	// Literal-operator-literal matcher for ConstCmps and StrConcats. States:
	// 0 idle, 1 literal just closed, 2 inside an ==/===/!=/!== run after a
	// literal, 3 equality operator complete, 4 `+` seen after a string
	// literal. A single canonical space is transparent; anything else resets.
	litCmp int
	litStr bool // the literal that opened the match was a string
	cmpLen int  // operator run length in state 2
	cmpRel bool // state-2 run is relational (< >) rather than equality
	// litTaint marks that the next literal is glued to a larger expression
	// by a preceding arithmetic or bitwise operator (`row.id % 3 !== 0`):
	// such a literal is an operand, not the comparison's left side.
	litTaint bool

	ccPos  int // position in "fromCharCode" marker
	pctPos int // position in a %XX percent-escape inside a string
}

// feed consumes one canonical byte.
func (m *refMatchState) feed(b byte, f *Features) {
	// Payload matchers (escapes, base64 runs, data-URI markers) see every
	// byte: their targets live inside string literals.
	m.feedPayload(b, f)

	// The word and comparison matchers skip string contents: an identifier
	// or `===` inside a string is data, not code.
	if m.inStr != 0 {
		switch {
		case m.strEsc:
			m.strEsc = false
		case b == '\\':
			m.strEsc = true
		case b == m.inStr:
			// String literal closed: it can be the left operand of a
			// comparison or concatenation.
			m.inStr = 0
			if m.litTaint {
				m.litTaint = false
				m.litCmp = 0
			} else {
				m.litCmp = 1
				m.litStr = true
			}
		case b == '\n':
			// Unterminated on this line (template or desync): bail out.
			m.inStr = 0
			m.litCmp = 0
		}
		return
	}

	wasWord := m.prevWord

	// Whole-word matcher: collect runs of word bytes (bounded at 8; longer
	// words cannot be one of the monitored keywords).
	if isWordByte(b) {
		if !m.prevWord {
			m.wordLen = 0
		}
		if m.wordLen < len(m.word) {
			m.word[m.wordLen] = b
			m.wordLen++
		} else {
			m.wordLen = len(m.word) + 1 // poison: too long
		}
		m.prevWord = true
	} else {
		if m.prevWord {
			m.closeWord(f)
		}
		m.prevWord = false
	}

	m.feedCmp(b, wasWord, f)
}

// cmpValid reports whether the operator run collected in state 2 spells a
// comparison: ==, ===, != or !== for equality runs, < or <= (and > / >=) for
// relational runs. A lone = is assignment; << and >> are shifts.
func (m *refMatchState) cmpValid() bool {
	if m.cmpRel {
		return m.cmpLen == 1 || m.cmpLen == 2
	}
	return m.cmpLen == 2 || m.cmpLen == 3
}

// feedCmp advances the literal-operator-literal matcher; wasWord is the word
// state before this byte, so a digit is only a literal start when it begins a
// token.
func (m *refMatchState) feedCmp(b byte, wasWord bool, f *Features) {
	switch {
	case b == '"' || b == '\'':
		if m.litCmp == 3 || (m.litCmp == 2 && m.cmpValid()) {
			f.ConstCmps++
		} else if m.litCmp == 4 && m.litStr {
			f.StrConcats++
		}
		m.litCmp = 0
		m.inStr = b
		m.strEsc = false
	case b == ' ':
		if m.litCmp == 2 {
			if m.cmpValid() {
				m.litCmp = 3
			} else {
				m.litCmp = 0
			}
		}
		// States 1, 3 and 4 see through a single canonical space.
	case b == '=' || b == '!':
		switch m.litCmp {
		case 1:
			m.litCmp = 2
			m.cmpLen = 1
			m.cmpRel = false
		case 2:
			max := 3
			if m.cmpRel {
				max = 2 // <= / >=
			}
			if b == '!' || m.cmpLen >= max {
				m.litCmp = 0
			} else {
				m.cmpLen++
			}
		default:
			m.litCmp = 0
		}
	case b == '<' || b == '>':
		if m.litCmp == 1 && !m.litStr {
			m.litCmp = 2
			m.cmpLen = 1
			m.cmpRel = true
		} else {
			// A second < or > is a shift (1 << 2), not a comparison.
			m.litCmp = 0
			m.litTaint = true
		}
	case b == '.':
		if m.litCmp == 1 && m.litStr {
			f.QuoteCalls++
		}
		m.litCmp = 0
	case b == '+':
		switch {
		case m.litCmp == 1 && m.litStr:
			m.litCmp = 4
		case m.litCmp == 1:
			m.litCmp = 0 // numeric const chain: 1 + 2 === 3 stays constant
		default:
			m.litCmp = 0
			m.litTaint = true
		}
	case b == '%' || b == '*' || b == '/' || b == '-' ||
		b == '&' || b == '|' || b == '^':
		if m.litCmp == 1 && !m.litStr {
			m.litCmp = 0 // numeric const chain: 8 * 8 < 8 stays constant
		} else {
			m.litCmp = 0
			m.litTaint = true
		}
	case !wasWord && b >= '0' && b <= '9':
		if m.litCmp == 3 || (m.litCmp == 2 && m.cmpValid()) {
			f.ConstCmps++
		}
		m.litCmp = 0
	default:
		if !isWordByte(b) || !wasWord {
			m.litCmp = 0
		}
		// A word continuing (wasWord && word byte) leaves the matcher
		// alone: closeWord decides what the token was.
	}
}

// feedPayload runs the matchers that inspect string payloads and raw text.
func (m *refMatchState) feedPayload(b byte, f *Features) {
	// Escape sequences: backslash starts, x/u selects, hex digits confirm.
	switch {
	case m.escape == 0:
		if b == '\\' {
			m.escape = 1
		}
	case m.escape == 1:
		switch b {
		case 'x':
			m.escHex = true
			m.escape = 2
		case 'u':
			m.escHex = false
			m.escape = 2
		case '\\':
			m.escape = 1 // \\\x still starts an escape at the second slash
		default:
			m.escape = 0
		}
	default:
		if !isHexByte(b) && !(b == '{' && m.escape == 2 && !m.escHex) {
			m.escape = 0
			if b == '\\' {
				m.escape = 1
			}
			break
		}
		m.escape++
		if m.escHex && m.escape == 4 { // \xNN
			f.HexEscapes++
			m.escape = 0
		} else if !m.escHex && m.escape == 6 { // \uNNNN (or \u{NNNN)
			f.UnicodeEscapes++
			m.escape = 0
		}
	}

	// Base64 runs: count maximal runs of the base64 alphabet >= 24 bytes.
	if isAlnumByte(b) || b == '+' || b == '/' || b == '=' {
		m.b64Run++
	} else {
		if m.b64Run >= 24 {
			f.Base64Runs++
		}
		m.b64Run = 0
	}

	// data: URI payload marker "base64,".
	const marker = "base64,"
	if b == marker[m.uriPos] {
		m.uriPos++
		if m.uriPos == len(marker) {
			f.DataURIHits++
			m.uriPos = 0
		}
	} else if b == marker[0] {
		m.uriPos = 1
	} else {
		m.uriPos = 0
	}

	// Character-code decoder marker "fromCharCode".
	const ccMarker = "fromCharCode"
	if b == ccMarker[m.ccPos] {
		m.ccPos++
		if m.ccPos == len(ccMarker) {
			f.CharCodeHits++
			m.ccPos = 0
		}
	} else if b == ccMarker[0] {
		m.ccPos = 1
	} else {
		m.ccPos = 0
	}

	// %XX percent escapes, only inside string literals.
	switch {
	case m.inStr == 0 || b == '%':
		if b == '%' && m.inStr != 0 {
			m.pctPos = 1
		} else {
			m.pctPos = 0
		}
	case m.pctPos > 0 && isHexByte(b):
		m.pctPos++
		if m.pctPos == 3 {
			f.PercentEscapes++
			m.pctPos = 0
		}
	default:
		m.pctPos = 0
	}
}

// closeWord scores a completed word run.
func (m *refMatchState) closeWord(f *Features) {
	switch {
	case m.wordLen == 4 && string(m.word[:4]) == "eval":
		f.EvalCount++
	case m.wordLen == 8 && string(m.word[:8]) == "Function":
		f.FunctionCount++
	case m.wordLen == 4 && string(m.word[:4]) == "atob":
		f.AtobCount++
	case m.wordLen == 4 && string(m.word[:4]) == "case":
		f.CaseCount++
	}
	// _0x prefix: the obfuscator-idiom identifier family. The first bytes of
	// a too-long word are still in the buffer, so the prefix check covers
	// realistic _0x1a2b3c-style names too.
	if m.wordLen >= 3 && m.word[0] == '_' && m.word[1] == '0' && m.word[2] == 'x' {
		f.HexIdents++
	}
	// A token starting with a digit is a numeric literal: it can open a
	// literal-vs-literal comparison — unless it is glued to a larger
	// expression by a preceding operator. Any other word resets the
	// matcher: identifiers are not literals.
	if m.wordLen >= 1 && m.word[0] >= '0' && m.word[0] <= '9' && !m.litTaint {
		m.litCmp = 1
		m.litStr = false
	} else {
		m.litCmp = 0
	}
	m.litTaint = false
	m.wordLen = 0
}

// flush closes any run still open at end of input.
func (m *refMatchState) flush(f *Features) {
	if m.prevWord {
		m.closeWord(f)
	}
	if m.b64Run >= 24 {
		f.Base64Runs++
	}
}

// isWordByte reports identifier-ish bytes.
func isWordByte(b byte) bool {
	return b == '_' || b == '$' || isAlnumByte(b)
}

func isAlnumByte(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func isHexByte(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}

// referenceEdges are the inputs where a multi-pass Compute could drift from
// the byte-at-a-time reference: CR and horizontal whitespace inside markers
// and keywords, whitespace at line ends and at EOF, escape and percent
// sequences cut short or doubled, string bodies with escaped quotes and
// newlines, unterminated strings, and non-ASCII bytes.
var referenceEdges = []string{
	"",
	" ",
	"\t",
	"\r",
	"\n",
	"\r\n",
	"\n ",
	"\n\r",
	"\n\t \r",
	"a\n ",
	"a \n",
	"a\t \t\nb",
	"a  \t  b\t\tc",
	"\t\tindented();\n    again();\n",
	"trailing();   ",
	"trailing();\t\r\n\t\r\n",
	" \r \r a",
	"a \rb",
	"a\t\r\tb\r",
	"a\r \n\r b \r",
	"ev\ral(x)",
	"ev al(x)",
	"eval\r(x)",
	"base\r64,QUJD",
	"base 64,QUJD",
	"data:text/plain;base64,base64,",
	"bbase64,bas base64",
	"from\rCharCode",
	"String.fromCharCode(65)+fromfromCharCode",
	`"\x4`,
	`"\x41`,
	`"\u004`,
	`"A\u{`,
	`\u{`,
	`\u{1F600}`,
	`\u{{1`,
	`\\x41`,
	`\\\x41`,
	`\x\x41\uA`,
	`\x4\x41`,
	`%4%41`,
	`"%4%41"`,
	`"\%41"`,
	`'%41%4g%%41'`,
	`"%4"1`,
	`"%41`,
	"\"a\\\nb\" + \"c\"",
	"\"a\\\r\nb\" === \"c\"",
	`"a\"b" + "c"`,
	`'a\'b'.split('')`,
	`"unterminated`,
	"\"unterminated\n500 === 501",
	`'single`,
	`"ends with backslash\`,
	`"a" == "b"`,
	`1 == 2`,
	`1==2`,
	`1 === 2`,
	`1 ==== 2`,
	`1 !== 2`,
	`1 != = 2`,
	`1 <= 2`,
	`1 << 2`,
	`1 <== 2`,
	`"a" < "b"`,
	`x % 3 !== 0`,
	`x % "a" == "b"`,
	`2 * 3 == 6`,
	`1 + 2 === 3`,
	`"a" + "b" + c`,
	`"a"+"b"`,
	`"a" + 1`,
	`"x".y`,
	`1.5`,
	`a1 == 2`,
	`_0x1f = 0x1f == 31`,
	`_0xabcdefabcdef _0 _0x`,
	"case Function atob eval caseX Functions evalu",
	"$eval eval$ _eval eval_",
	strings.Repeat("Ab0+", 6),
	strings.Repeat("Ab0+", 6) + "\r" + strings.Repeat("=/", 12),
	strings.Repeat("A", 23) + " " + strings.Repeat("A", 24),
	"var s = \"ééé\";\n\xff\x80\x00",
	"\xc3\xa9 = \"\xe2\x80\xa8\" == \"\xf0\x9f\x98\x80\"",
	"`template \"quote` + \"a\"",
}

// referenceAlphabet is the token alphabet of the random differential: the
// bytes and words every matcher keys on, plus CR, TAB, space and LF so the
// canonicalization interleaves with all of them.
var referenceAlphabet = []string{
	`"`, `'`, `\`, `%`, `=`, `!`, `<`, `>`, `+`, `.`, `-`, `*`, `/`, `_`,
	`0x`, `0`, `1`, `4`, `9`, `a`, `f`, `F`, `g`, `u`, `x`, `{`, `(`, `$`,
	"base64,", "fromCharCode", "eval", "case", "atob", "Function",
	"\r", "\t", " ", " ", "\n", "\xc3",
}

// randomReferenceInput draws one string of up to 60 alphabet tokens.
func randomReferenceInput(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(61); n > 0; n-- {
		b.WriteString(referenceAlphabet[rng.Intn(len(referenceAlphabet))])
	}
	return b.String()
}

// referenceCorpus is the generated-code side of the differential: a regular
// set with each base under all ten transforms and the packer, and the
// Alexa-like, npm-like and malicious collections.
func referenceCorpus(tb testing.TB) []string {
	tb.Helper()
	var out []string
	rng := rand.New(rand.NewSource(25))
	techs := append(append([]transform.Technique{}, transform.Techniques...), transform.Packer)
	for _, base := range corpus.RegularSet(12, rng) {
		out = append(out, base.Source)
		for _, tech := range techs {
			tf, err := corpus.Apply(base, rng, tech)
			if err != nil {
				tb.Fatalf("%s under %s: %v", base.Name, tech, err)
			}
			out = append(out, tf.Source)
		}
	}
	alexa, err := corpus.BuildRanked(corpus.AlexaConfig(40), rng)
	if err != nil {
		tb.Fatal(err)
	}
	npm, err := corpus.BuildNpm(corpus.NpmConfig(20), rng)
	if err != nil {
		tb.Fatal(err)
	}
	files := append(alexa, npm...)
	for _, cfg := range corpus.DefaultMaliciousConfigs(1) {
		mal, err := corpus.BuildMalicious(cfg, rng)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, mal...)
	}
	for _, f := range files {
		out = append(out, f.Source)
	}
	return out
}

// checkMatchesReference fails t when Compute and computeRef disagree on src.
// Features compares with ==, so the float fields must match bit for bit
// (NaN never occurs: every ratio divides by a nonzero byte count).
func checkMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, want := Compute(src), computeRef(src)
	if got != want {
		t.Fatalf("Compute(%q) differs from the reference:\n got %+v\nwant %+v", src, got, want)
	}
}

// TestComputeMatchesReference pins Compute to the byte-at-a-time reference on
// generated code, the edge table and seeded random strings.
func TestComputeMatchesReference(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		for _, src := range referenceCorpus(t) {
			checkMatchesReference(t, src)
		}
	})
	t.Run("edges", func(t *testing.T) {
		for _, src := range referenceEdges {
			checkMatchesReference(t, src)
			// Each edge also at the end of a file, after a prefix that
			// leaves every matcher mid-state.
			checkMatchesReference(t, `x = 1 == "a%4\x4_0`+src)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2525))
		for i := 0; i < 100_000; i++ {
			checkMatchesReference(t, randomReferenceInput(rng))
		}
	})
}

// FuzzTriageCompute asserts the same contract on arbitrary input.
func FuzzTriageCompute(f *testing.F) {
	for _, src := range referenceEdges {
		f.Add(src)
	}
	f.Fuzz(checkMatchesReference)
}

// benchMix is a fixed crawl-like mix: Alexa-like and npm-like site scripts,
// one malware feed, and two 16 KB library scripts, one of them minified.
func benchMix(tb testing.TB) []string {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	alexa, err := corpus.BuildRanked(corpus.AlexaConfig(60), rng)
	if err != nil {
		tb.Fatal(err)
	}
	npm, err := corpus.BuildNpm(corpus.NpmConfig(20), rng)
	if err != nil {
		tb.Fatal(err)
	}
	mal, err := corpus.BuildMalicious(corpus.DefaultMaliciousConfigs(1)[0], rng)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, fs := range [][]corpus.File{alexa, npm, mal} {
		for _, f := range fs {
			out = append(out, f.Source)
		}
	}
	for i := 0; i < 2; i++ {
		var b strings.Builder
		for b.Len() < 16<<10 {
			b.WriteString(corpus.GenerateRegular(rng))
			b.WriteString("\n")
		}
		lib := corpus.File{Name: "lib.js", Source: b.String()}
		if i == 1 {
			if lib, err = corpus.Apply(lib, rng, transform.MinifyAdvanced); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, lib.Source)
	}
	return out
}

var benchSink int

func benchmarkCompute(b *testing.B, compute func(string) Features) {
	mix := benchMix(b)
	total := 0
	for _, src := range mix {
		total += len(src)
	}
	for _, src := range mix {
		compute(src) // warm the scratch pool
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range mix {
			f := compute(src)
			benchSink += f.Bytes
		}
	}
}

// BenchmarkCompute and BenchmarkComputeReference run the same mix, so their
// ratio within one run is the speedup of Compute over the reference pass.
func BenchmarkCompute(b *testing.B)          { benchmarkCompute(b, Compute) }
func BenchmarkComputeReference(b *testing.B) { benchmarkCompute(b, computeRef) }

// TestComputeZeroAlloc pins Compute at zero allocations per call once warm.
func TestComputeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	mix := benchMix(t)
	for _, src := range mix {
		Compute(src)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, src := range mix {
			benchSink += Compute(src).Bytes
		}
	})
	if allocs != 0 {
		t.Errorf("Compute allocates %.1f times per mix, want 0", allocs)
	}
}
