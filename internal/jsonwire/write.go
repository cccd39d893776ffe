// Package jsonwire writes and reads the cell store's JSON documents
// without reflection, byte for byte as encoding/json writes them and value
// for value as it reads them. The store's envelope and the experiments
// layer's result payload append their fields by hand into one buffer and
// decode in one pass straight into their Go values, where encoding/json
// would build its type caches and run its scanner over a document once
// per nested Unmarshal; the documents a cell key hashes are appended the
// same way.
//
// The writer's bytes equal json.Marshal's: AppendString escapes as
// Marshal escapes, with HTML escaping on, AppendFloat formats as Marshal
// formats a float64, and AppendCompact writes a raw document as Marshal
// writes a json.RawMessage.
//
// Reader accepts exactly the documents json.Unmarshal accepts and decodes
// what it decodes: any whitespace, member order and string escapes; null,
// which leaves a scalar as it was; unknown members, which are checked and
// skipped; and struct field names matched exactly or, failing that, under
// encoding/json's case folding.
package jsonwire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped as json.Marshal escapes
// it: quotes, backslashes and control bytes; HTML's <, > and &; U+2028 and
// U+2029; and each byte of invalid UTF-8, as U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal formats a float64: the shortest
// decimal that parses back to f, in exponent form below 1e-6 and from
// 1e21 on. NaN and the infinities have no JSON form; they are an error,
// as they are to Marshal.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("jsonwire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //portlint:ignore floatcmp zero is the one value both forms print alike, as in encoding/json
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 is written e-7.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendCompact appends the JSON document raw as json.Marshal writes a
// json.RawMessage: checked, with the whitespace between its tokens
// dropped and <, >, &, U+2028 and U+2029 escaped inside its strings. A
// document that is not valid JSON is an error, and dst comes back as it
// was.
func AppendCompact(dst, raw []byte) ([]byte, error) {
	r := NewReader(raw)
	r.Skip()
	if err := r.End(); err != nil {
		return dst, err
	}
	start, inString := 0, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case !inString:
			switch c {
			case '"':
				inString = true
			case ' ', '\t', '\n', '\r':
				dst = append(dst, raw[start:i]...)
				start = i + 1
			}
		case c == '\\':
			i++ // an escape is two bytes or starts \uXXXX, ASCII either way
		case c == '"':
			inString = false
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, raw[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		case c == 0xE2 && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			// U+2028 or U+2029; a valid document closes the string after it.
			dst = append(dst, raw[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			start = i + 1
		}
	}
	return append(dst, raw[start:]...), nil
}
