package jsonsplice

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// nested returns depth arrays ("[") or objects ("{") opened inside one
// another around an empty innermost one, then closed.
func nested(open byte, depth int) string {
	if open == '[' {
		return strings.Repeat("[", depth) + strings.Repeat("]", depth)
	}
	return strings.Repeat(`{"a":`, depth-1) + "{}" + strings.Repeat("}", depth-1)
}

// validCases are documents with the verdict encoding/json.Valid gives
// them: every number form, every escape, the four whitespace bytes (and
// bytes that are not whitespace), literals, objects, arrays — the
// integer runs Valid scans in a tight loop among them — trailing bytes,
// invalid UTF-8 inside a string, and the nesting limit on both sides.
var validCases = []struct {
	doc  string
	want bool
}{
	// Numbers.
	{"0", true}, {"-0", true}, {"7", true}, {"-7", true}, {"10", true},
	{"123456789012345678901234567890", true}, {"1.5", true}, {"-0.0", true},
	{"1e5", true}, {"1E5", true}, {"1e+5", true}, {"1e-5", true}, {"0e0", true},
	{"-1.5E+30", true}, {"1.25e-10", true},
	{"01", false}, {"-01", false}, {"00", false}, {"1.", false}, {".5", false},
	{"1.e1", false}, {"-", false}, {"--1", false}, {"+1", false}, {"1e", false},
	{"1e+", false}, {"1e-", false}, {"1x", false}, {"0x10", false}, {"-a", false},
	{"Infinity", false}, {"NaN", false}, {"1.5.2", false}, {"1ee5", false},
	// Integer runs inside arrays.
	{"[1,2,3]", true}, {"[0,0,10]", true}, {"[1 ,2]", true}, {"[1, 2]", true},
	{"[1,2 ]", true}, {"[ 1,2]", true}, {"[1.5,2]", true}, {"[1,2.5]", true},
	{"[1,2e3,4]", true}, {"[1,-2]", true}, {"[1,0,-0]", true}, {"[1\t,\n2\r]", true},
	{"[1,2,true]", true}, {`[1,2,"x"]`, true}, {"[1,2,[3,4],5]", true},
	{"[01]", false}, {"[1,01]", false}, {"[1,01,2]", false}, {"[1,]", false},
	{"[,1]", false}, {"[1,,2]", false}, {"[1,2,", false}, {"[1,2", false},
	{"[1,2]]", false}, {"[1,2}", false}, {"[1,2 3]", false}, {"[1,2.]", false},
	{"[1,2e]", false}, {"[1,2-]", false}, {"[1,23", false}, {"[1,2,3", false},
	// Strings and escapes.
	{`""`, true}, {`"abc"`, true}, {`"\""`, true}, {`"\\"`, true}, {`"\/"`, true},
	{`"\b"`, true}, {`"\f"`, true}, {`"\n"`, true}, {`"\r"`, true}, {`"\t"`, true},
	{`"\u0041"`, true}, {`"\uABCD"`, true}, {`"\uabcd"`, true}, {`"\u12345"`, true},
	{`"\ud800"`, true}, {"\"\x7f\"", true}, {"\"é\u2028\"", true},
	{"\"\xff\xfe\"", true}, {"\"\xc3\x28\"", true}, {"\"\xed\xa0\x80\"", true},
	{`"\u00g0"`, false}, {`"\u12"`, false}, {`"\u"`, false}, {`"\U0041"`, false},
	{`"\x41"`, false}, {`"\'"`, false}, {`"\a"`, false}, {`"\`, false}, {`"abc`, false},
	{`"`, false}, {"\"\x00\"", false}, {"\"\x1f\"", false}, {"\"a\tb\"", false},
	{"\"a\nb\"", false}, {"'a'", false},
	// Whitespace.
	{" 1 ", true}, {"\t1\t", true}, {"\n1\n", true}, {"\r1\r", true},
	{" \t\n\r[ \t\n\r1 \t\n\r, \t\n\r{ \t\n\r\"a\" \t\n\r: \t\n\rnull \t\n\r} \t\n\r] \t\n\r", true},
	{"", false}, {" ", false}, {" \t\n\r", false}, {"\f1", false}, {"\v1", false},
	{"\xc2\xa01", false}, {"1\x00", false}, {"\x001", false},
	// Literals.
	{"true", true}, {"false", true}, {"null", true}, {"[true,false,null]", true},
	{"tru", false}, {"truee", false}, {"True", false}, {"nul", false}, {"nulll", false},
	{"fals", false}, {"t", false}, {"nil", false},
	// Objects and arrays.
	{"{}", true}, {"{ }", true}, {"[]", true}, {"[ ]", true}, {`{"a":1}`, true},
	{`{"a" : 1 , "b":[ ]}`, true}, {`[{"a":[]},{}]`, true}, {`{"":{"":""}}`, true},
	{`{"s":1,"cached":false,"hyperedge_ids":[0,1,2]}`, true},
	{`{"a":1,}`, false}, {"{,}", false}, {`{"a"}`, false}, {`{"a":}`, false},
	{"{1:1}", false}, {`{"a":1 "b":2}`, false}, {`{"a":1}}`, false}, {`{"a":1]`, false},
	{`{"a";1}`, false}, {`{"a":1`, false}, {`{"a"`, false}, {"{", false}, {"[", false},
	{"]", false}, {"}", false}, {`{a:1}`, false}, {"[1}", false}, {`{"a":1,"b"}`, false},
	// Trailing bytes.
	{"{} {}", false}, {"1 2", false}, {`{"a":1}x`, false}, {"[]\x00", false},
	{`{"s":1},`, false}, {"true false", false},
	// Nesting.
	{nested('[', maxDepth), true}, {nested('[', maxDepth+1), false},
	{nested('{', maxDepth), true}, {nested('{', maxDepth+1), false},
	{strings.Repeat("[", maxDepth+1), false},
}

// TestValidMatchesStdlib: Valid and encoding/json.Valid give every
// table document its recorded verdict.
func TestValidMatchesStdlib(t *testing.T) {
	for _, c := range validCases {
		doc := []byte(c.doc)
		if got, std := Valid(doc), json.Valid(doc); got != c.want || std != c.want {
			t.Errorf("%.60q: Valid %v, json.Valid %v, want %v", c.doc, got, std, c.want)
		}
	}
}

// FuzzValidMatchesStdlib: Valid agrees with encoding/json.Valid on any
// bytes. The seeds are the table's short documents (the fuzzer's
// minimizer stalls on the nesting cases' 50 KB), and the replica and
// router documents Write assembles: each body, its head closed with
// "}", and each entry Split cuts out.
func FuzzValidMatchesStdlib(f *testing.F) {
	for _, c := range validCases {
		if len(c.doc) <= 1<<10 {
			f.Add([]byte(c.doc))
		}
	}
	for _, p := range []struct {
		dataset, measure, errMsg string
		version                  uint64
		elapsed                  float64
		n                        uint8
		mixed                    bool
	}{
		{"paper", "pagerank", "no node at s=3", 1, 0.125, 3, false},
		{"<d&d>", "", "\u2028\x00\x1f\"\\", 0, 1e-7, 0, true},
		{"データ", "components", "é\xff", 1 << 63, 1e21, 8, false},
	} {
		for _, d := range spliceDocs(p.dataset, p.measure, p.errMsg, p.version, p.elapsed, p.n, p.mixed) {
			rec := httptest.NewRecorder()
			Write(rec, http.StatusOK, d.head, d.entries)
			head, entries, ok := Split(rec.Body.Bytes(), rec.Header().Get(EntriesHeader))
			if !ok {
				f.Fatalf("Split rejects the written body %q", rec.Body.Bytes())
			}
			f.Add(rec.Body.Bytes())
			f.Add(append(head[:len(head):len(head)], '}'))
			for _, e := range entries {
				f.Add(e)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Valid(data), json.Valid(data); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid says %v", data, got, want)
		}
	})
}
