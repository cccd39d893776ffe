package jsonwire

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", `"quoted" \ back/slash`, "<a href=x&y>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029", "é日本😀\ufffd", "\xff", "a\xe2\x80", "\xed\xa0\x80", "\xe2\x80\xa8\xe2\x80",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-320} {
		want, _ := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := AppendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %s, %v; want an error", f, got, err)
		}
	}
}

func TestAppendCompactMatchesMarshal(t *testing.T) {
	for _, doc := range []string{
		`{}`, ` [ 1 , 2.5e-3 , "a b" , null , true ] `, "{\n\t\"k\" : { \"<&>\" : \"\u2028\\u2029\" } }",
		`"\" \\ "`, `-0`, "\"\xff\"",
		// Not JSON: each is an error.
		``, ` `, `{`, `[1,]`, `{"a":1,}`, `01`, `1.`, `.5`, `+1`, `"a` + "\n" + `"`, `"\x"`, `nul`, `{} {}`, `"\u12"`,
	} {
		want, wantErr := json.Marshal(json.RawMessage(doc))
		got, err := AppendCompact(nil, []byte(doc))
		if (err == nil) != (wantErr == nil) || string(got) != string(want) {
			t.Errorf("AppendCompact(%q) = %s, %v; json.Marshal gives %s, %v", doc, got, err, want, wantErr)
		}
	}
}

// probe is the Go value TestReaderMatchesUnmarshal decodes into, with a
// field of each kind a Reader reads.
type probe struct {
	S   string          `json:"s"`
	U   uint64          `json:"u"`
	I   int64           `json:"i"`
	F   float64         `json:"f"`
	B   bool            `json:"b"`
	Raw json.RawMessage `json:"raw"`
	In  *probe          `json:"in"`
	L   []uint64        `json:"l"`
}

var probeFields = []string{"s", "u", "i", "f", "b", "raw", "in", "l"}

// read decodes a probe with a Reader, as json.Unmarshal would.
func (p *probe) read(r *Reader) {
	if !r.Object() {
		return
	}
	for name, ok := r.Member(probeFields); ok; name, ok = r.Member(probeFields) {
		switch name {
		case "s":
			r.String(&p.S)
		case "u":
			r.Uint(&p.U)
		case "i":
			r.Int(&p.I)
		case "f":
			r.Float(&p.F)
		case "b":
			r.Bool(&p.B)
		case "raw":
			if raw := r.Raw(); raw != nil {
				p.Raw = append(p.Raw[:0], raw...)
			}
		case "in":
			if r.Null() {
				p.In = nil
				continue
			}
			if p.In == nil {
				p.In = new(probe)
			}
			p.In.read(r)
		case "l":
			p.L = p.L[:0]
			if !r.Array() {
				p.L = nil
				continue
			}
			for r.Elem() {
				var v uint64
				r.Uint(&v)
				p.L = append(p.L, v)
			}
		default:
			r.Skip()
		}
	}
}

// TestReaderMatchesUnmarshal reads documents into a probe with a Reader
// and with json.Unmarshal, starting from the same value: both must fail,
// or both must succeed with the same value.
func TestReaderMatchesUnmarshal(t *testing.T) {
	start := probe{S: "keep", U: 7, B: true, In: &probe{S: "inner"}, L: []uint64{9}}
	docs := []string{
		`{"s":"a","u":1,"i":-2,"f":0.5,"b":false,"raw":{ "x" : [1, 2] },"in":{"u":3},"l":[4,5]}`,
		` { "l" : [ ] , "s" : "\u00e9\ud83d\ude00\n\/\"\\\b\f\r\t" } `,
		`{"s":"\ud800","u":null,"i":null,"f":null,"b":null,"in":null,"l":null,"raw":null}`,
		`{"s":"\udc00\ud800\u0041","S":"upper","U":2,"ſ":"long s","K":1}`,
		"{\"s\":\"\xff\xe2\x80\",\"unknown\":{\"a\":[1,{\"b\":null}],\"c\":\"\\u2028\"},\"in\":{\"in\":{}}}",
		`{"u":1,"u":2,"in":{"s":"x"},"in":{"u":5},"l":[1],"l":[2,3]}`,
		`{"i":-0,"f":-0,"u":18446744073709551615,"i":-9223372036854775808,"f":1e308}`,
		`{"s":null,"in":{"s":null}}`, `null`, `{}`,
		// Type errors.
		`{"u":-1}`, `{"u":1.0}`, `{"u":1e3}`, `{"u":18446744073709551616}`, `{"i":9223372036854775808}`,
		`{"f":1e400}`, `{"s":1}`, `{"b":"true"}`, `{"in":[]}`, `{"l":{}}`, `{"l":["1"]}`, `[]`, `"s"`,
		// Syntax errors.
		``, `{`, `{"s"}`, `{"s":}`, `{"s":"a",}`, `{,"s":"a"}`, `{"s":"a" "u":1}`, `{"u":01}`, `{"f":1.}`,
		`{"f":.5}`, `{"f":1e}`, `{"u":+1}`, "{\"s\":\"\t\"}", `{"s":"\x"}`, `{"s":"\'"}`, `{"s":"\u12g4"}`,
		`{"s":"open}`, `{"b":tru}`, `{"b":nul}`, `{} x`, `{"raw":[1,]}`, `{"raw":[1 2]}`, `{1:2}`,
		// encoding/json's nesting limit: 10000 levels, counted from the top.
		`{"raw":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"raw":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	for _, doc := range docs {
		want, got := clone(start), clone(start)
		wantErr := json.Unmarshal([]byte(doc), &want)
		r := NewReader([]byte(doc))
		got.read(&r)
		err := r.End()
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%.80q: Reader error %v, json.Unmarshal's %v", doc, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%.80q: Reader reads %+v, json.Unmarshal %+v", doc, got, want)
		}
	}
}

// clone deep-copies a probe.
func clone(p probe) probe {
	p.L = append([]uint64(nil), p.L...)
	if p.In != nil {
		in := clone(*p.In)
		p.In = &in
	}
	return p
}
