package jsonwire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document may open this many
// objects and arrays inside one another, and no more.
const maxDepth = 10000

// Reader decodes one JSON document in a single pass. Its caller walks the
// document's structure with Object and Member, Array and Elem, and reads
// each value with the method of its Go type, as json.Unmarshal would fill
// a value of that type. The first error, of syntax or of type, stops the
// read: every later call does nothing, and End reports it.
type Reader struct {
	data []byte
	pos  int
	// depth counts the objects and arrays open around pos.
	depth int
	// first is set when an object or array opens, until the Member or
	// Elem that reads its first entry.
	first bool
	err   error
}

// NewReader returns a reader of the document data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// End reports the read's first error, or, when the document's value is
// read, an error if anything but whitespace follows it.
func (r *Reader) End() error {
	if r.err == nil {
		r.skipSpace()
		if r.pos < len(r.data) {
			r.syntaxError("after top-level value")
		}
	}
	return r.err
}

// Start returns the input offset of the next value, for Span.
func (r *Reader) Start() int {
	r.skipSpace()
	return r.pos
}

// Span returns the input from offset start, from Start, to where the read
// stands: the bytes of the values read since.
func (r *Reader) Span(start int) []byte { return r.data[start:r.pos] }

// Null consumes a null and reports whether the next value was one.
func (r *Reader) Null() bool {
	return r.err == nil && r.peek() == 'n' && r.literal("null")
}

// Object starts an object, whose members Member or Key then read. It
// returns false after consuming a null, and after an error; any other
// value is a type error.
func (r *Reader) Object() bool { return r.open('{', "object") }

// Array starts an array, whose elements Elem then counts off. It returns
// false after consuming a null, and after an error; any other value is a
// type error.
func (r *Reader) Array() bool { return r.open('[', "array") }

// Key advances to the next member of the object being read and returns its
// name, unescaped: the input's bytes when the name needs no unescaping, or
// a copy. The value comes next. ok is false at the object's end, which Key
// consumes, and after an error.
func (r *Reader) Key() (name []byte, ok bool) {
	if !r.next('}') {
		return nil, false
	}
	name = r.key(true)
	return name, r.err == nil
}

// Member is Key for an object read into a struct whose JSON field names
// are fields, in field order. It returns the field the member's name
// selects, as encoding/json selects it: the field named exactly so, else
// the first the name matches under case folding. A name that selects no
// field returns "", and its value is for the caller to Skip.
func (r *Reader) Member(fields []string) (field string, ok bool) {
	name, ok := r.Key()
	if !ok {
		return "", false
	}
	for _, f := range fields {
		if string(name) == f {
			return f, true
		}
	}
	for _, f := range fields {
		if strings.EqualFold(string(name), f) {
			return f, true
		}
	}
	return "", true
}

// Elem advances to the next element of the array being read, which comes
// next. It returns false at the array's end, which it consumes, and after
// an error.
func (r *Reader) Elem() bool { return r.next(']') }

// Text reads a string and returns its contents, unescaped as encoding/json
// unescapes them: the input's bytes when nothing needs unescaping, or a
// copy. ok is false after consuming a null, and after an error.
func (r *Reader) Text() (text []byte, ok bool) {
	switch c := r.peek(); {
	case r.err != nil:
	case c == '"':
		text = r.str(true)
		return text, r.err == nil
	case c == 'n':
		r.literal("null")
	default:
		r.typeError("string")
	}
	return nil, false
}

// String reads a string into *p; a null leaves *p as it was.
func (r *Reader) String(p *string) {
	if text, ok := r.Text(); ok {
		*p = string(text)
	}
}

// Uint reads a number into *p, which fails unless it is an integer in
// uint64's range; a null leaves *p as it was.
func (r *Reader) Uint(p *uint64) {
	if tok := r.numberToken("uint64"); tok != nil {
		v, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil {
			r.fail(fmt.Errorf("jsonwire: cannot read number %s into uint64", tok))
			return
		}
		*p = v
	}
}

// Int reads a number into *p, which fails unless it is an integer in
// int64's range; a null leaves *p as it was.
func (r *Reader) Int(p *int64) {
	if tok := r.numberToken("int64"); tok != nil {
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			r.fail(fmt.Errorf("jsonwire: cannot read number %s into int64", tok))
			return
		}
		*p = v
	}
}

// Float reads a number into *p, which fails outside float64's range; a
// null leaves *p as it was.
func (r *Reader) Float(p *float64) {
	if tok := r.numberToken("float64"); tok != nil {
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			r.fail(fmt.Errorf("jsonwire: cannot read number %s into float64", tok))
			return
		}
		*p = v
	}
}

// Bool reads true or false into *p; a null leaves *p as it was.
func (r *Reader) Bool(p *bool) {
	switch c := r.peek(); {
	case r.err != nil:
	case c == 't':
		if r.literal("true") {
			*p = true
		}
	case c == 'f':
		if r.literal("false") {
			*p = false
		}
	case c == 'n':
		r.literal("null")
	default:
		r.typeError("bool")
	}
}

// Raw reads any value and returns its bytes as they stand in the input,
// as json.RawMessage receives them.
func (r *Reader) Raw() []byte {
	start := r.Start()
	r.Skip()
	if r.err != nil {
		return nil
	}
	return r.Span(start)
}

// Skip reads any value, checking its syntax, and drops it.
func (r *Reader) Skip() {
	switch c := r.peek(); {
	case r.err != nil:
	case c == '{':
		r.open('{', "object")
		for r.next('}') {
			r.key(false)
			r.Skip()
		}
	case c == '[':
		r.open('[', "array")
		for r.next(']') {
			r.Skip()
		}
	case c == '"':
		r.str(false)
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// fail records the read's first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// syntaxError fails the read on the byte at pos, or on the input's end.
func (r *Reader) syntaxError(context string) {
	if r.pos >= len(r.data) {
		r.fail(errors.New("jsonwire: unexpected end of JSON input"))
		return
	}
	r.fail(fmt.Errorf("jsonwire: invalid character %q %s at offset %d", r.data[r.pos], context, r.pos))
}

// typeError fails the read on the value at pos, which is not one a Go
// value of type want can take (or, if it starts with no value's first
// byte, not a value at all).
func (r *Reader) typeError(want string) {
	r.fail(fmt.Errorf("jsonwire: cannot read the value at offset %d into %s", r.pos, want))
}

// skipSpace moves past JSON whitespace.
func (r *Reader) skipSpace() {
	for ; r.pos < len(r.data); r.pos++ {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the input's end.
func (r *Reader) peek() byte {
	r.skipSpace()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// literal consumes lit, a keyword of the JSON grammar, and reports
// whether the input spelled it.
func (r *Reader) literal(lit string) bool {
	end := r.pos + len(lit)
	if end > len(r.data) || string(r.data[r.pos:end]) != lit {
		r.fail(fmt.Errorf("jsonwire: invalid literal at offset %d, want %s", r.pos, lit))
		return false
	}
	r.pos = end
	return true
}

// open consumes the delimiter that opens an object or array, or a null.
func (r *Reader) open(delim byte, kind string) bool {
	switch c := r.peek(); {
	case r.err != nil:
	case c == delim:
		r.pos++
		if r.depth++; r.depth > maxDepth {
			r.fail(errors.New("jsonwire: exceeded max depth"))
			return false
		}
		r.first = true
		return true
	case c == 'n':
		r.literal("null")
	default:
		r.typeError(kind)
	}
	return false
}

// next moves to the next entry of the object or array being read, whose
// closing delimiter is end: past the comma before it, or past end itself,
// when it reports false.
func (r *Reader) next(end byte) bool {
	if r.err != nil {
		return false
	}
	first := r.first
	r.first = false
	switch c := r.peek(); {
	case c == end:
		r.pos++
		r.depth--
		return false
	case first:
		return true
	case c == ',':
		r.pos++
		return true
	}
	if end == '}' {
		r.syntaxError("after object key:value pair")
	} else {
		r.syntaxError("after array element")
	}
	return false
}

// key reads a member name and the colon after it; unescape as for str.
func (r *Reader) key(unescape bool) []byte {
	if r.peek() != '"' {
		r.syntaxError("looking for beginning of object key string")
		return nil
	}
	name := r.str(unescape)
	if r.peek() != ':' {
		r.syntaxError("after object key")
		return nil
	}
	r.pos++
	return name
}

// str reads the string at pos. With unescape it returns the contents as
// Text does, else it only checks them and returns nil.
func (r *Reader) str(unescape bool) []byte {
	d := r.data
	start := r.pos + 1
	i := start
	// The contents are the input's bytes up to the first byte that needs
	// unescaping or coercing to UTF-8, as encoding/json's unquote finds it.
	for i < len(d) {
		c := d[i]
		if c == '"' {
			r.pos = i + 1
			if !unescape {
				return nil
			}
			return d[start:i]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		rr, size := utf8.DecodeRune(d[i:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	var text []byte
	if unescape {
		// Unescaping shrinks the rest; only invalid UTF-8 grows it.
		end := i
		for end < len(d) && d[end] != '"' {
			if d[end] == '\\' {
				end++
			}
			end++
		}
		text = append(make([]byte, 0, min(end, len(d))-start), d[start:i]...)
	}
	for i < len(d) {
		c := d[i]
		rr, size := rune(c), 1
		switch {
		case c == '"':
			r.pos = i + 1
			return text
		case c == '\\':
			if rr, size = r.escape(i); size < 0 {
				return nil
			}
		case c < ' ':
			r.pos = i
			r.syntaxError("in string literal")
			return nil
		case c >= utf8.RuneSelf:
			// Invalid UTF-8 reads as U+FFFD, one per byte.
			rr, size = utf8.DecodeRune(d[i:])
		}
		if unescape {
			text = utf8.AppendRune(text, rr)
		}
		i += size
	}
	r.pos = len(d)
	r.syntaxError("in string literal")
	return nil
}

// escape decodes the escape sequence at offset i and returns its rune and
// length, or a length < 0 after a syntax error. A \u escape of half a
// surrogate pair takes the other half from the escape after it, and reads
// as U+FFFD when there is none, as in encoding/json.
func (r *Reader) escape(i int) (rune, int) {
	d := r.data
	if i+1 >= len(d) {
		r.pos = len(d)
		r.syntaxError("in string escape code")
		return 0, -1
	}
	switch c := d[i+1]; c {
	case '"', '\\', '/':
		return rune(c), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		rr := hex4(d[i+2:])
		if rr < 0 {
			r.pos = i + 2
			r.syntaxError("in \\u hexadecimal character escape")
			return 0, -1
		}
		if utf16.IsSurrogate(rr) {
			rr1 := rune(-1)
			if j := i + 6; j+1 < len(d) && d[j] == '\\' && d[j+1] == 'u' {
				rr1 = hex4(d[j+2:])
			}
			if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
				return dec, 12
			}
			return unicode.ReplacementChar, 6
		}
		return rr, 6
	}
	r.pos = i + 1
	r.syntaxError("in string escape code")
	return 0, -1
}

// hex4 decodes the four hex digits that start b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// numberToken reads a number's token for a value of the Go type want. It
// returns nil after consuming a null, and after an error.
func (r *Reader) numberToken(want string) []byte {
	switch c := r.peek(); {
	case r.err != nil:
	case c == '-' || '0' <= c && c <= '9':
		return r.number()
	case c == 'n':
		r.literal("null")
	default:
		r.typeError(want)
	}
	return nil
}

// number reads a number token of the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() []byte {
	d, start := r.data, r.pos
	if r.pos < len(d) && d[r.pos] == '-' {
		r.pos++
	}
	switch {
	case r.pos < len(d) && d[r.pos] == '0':
		r.pos++
	case !r.digits():
		r.syntaxError("looking for beginning of value")
		return nil
	}
	if r.pos < len(d) && d[r.pos] == '.' {
		r.pos++
		if !r.digits() {
			r.syntaxError("after decimal point in numeric literal")
			return nil
		}
	}
	if r.pos < len(d) && (d[r.pos] == 'e' || d[r.pos] == 'E') {
		r.pos++
		if r.pos < len(d) && (d[r.pos] == '+' || d[r.pos] == '-') {
			r.pos++
		}
		if !r.digits() {
			r.syntaxError("in exponent of numeric literal")
			return nil
		}
	}
	return d[start:r.pos]
}

// digits moves past a run of decimal digits and reports whether there
// was one.
func (r *Reader) digits() bool {
	start := r.pos
	for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
		r.pos++
	}
	return r.pos > start
}
