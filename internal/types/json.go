package types

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Wire encoding of values. Components in Figure 1 exchange queries and
// answers over the network; this file defines the tagged JSON encoding both
// for answers (values) travelling mediator-ward and for tuples returned by
// data sources. The encoding is self-describing so that kind information
// survives the round trip (plain JSON would collapse Int/Float and has no
// bag/set/list distinction).
//
// Every value is one JSON object whose keys appear in the order k, b, i, f,
// s, n, e:
//
//	{"k":"int","i":-42}
//	{"k":"struct","n":["name","salary"],"e":[{"k":"str","s":"Mary"},{"k":"int","i":200}]}
//	{"k":"bag","e":[...]}
//
// k names the kind; b, i, f and s carry a scalar's payload; n holds a
// struct's field names and e its field values or a collection's elements.
// n and e are omitted when empty.
//
// The codec is written by hand: AppendValue emits the bytes directly and
// DecodeValue builds values in one recursive-descent pass, with no
// reflection and no intermediate JSON tree. The bytes are exactly those
// encoding/json writes for the struct-tag form of the same encoding
// (string escaping, float formatting and the NaN/Inf error included), and
// the decoder accepts a subset of what encoding/json accepts for it. That
// reference codec lives in json_spec_test.go, and the differential tests and
// fuzzers there hold this one to it.

// encodeBufs holds scratch buffers for EncodeValue, so that a large answer
// grows one buffer once instead of a fresh one through every size on the
// way to its final length.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeValue serializes a value into the tagged JSON wire form.
func EncodeValue(v Value) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	buf, err := AppendValue((*bp)[:0], v)
	if err != nil {
		return nil, err
	}
	*bp = buf
	return bytes.Clone(buf), nil
}

// AppendValue appends the tagged JSON wire form of v to dst and returns the
// extended buffer, in the manner of strconv.AppendInt. On error the
// returned buffer is nil.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case Null:
		return append(dst, `{"k":"null"}`...), nil
	case Bool:
		if x {
			return append(dst, `{"k":"bool","b":true}`...), nil
		}
		return append(dst, `{"k":"bool","b":false}`...), nil
	case Int:
		dst = append(dst, `{"k":"int","i":`...)
		dst = strconv.AppendInt(dst, int64(x), 10)
		return append(dst, '}'), nil
	case Float:
		f := float64(x)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			// The error encoding/json reports for the same float.
			return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		dst = append(dst, `{"k":"float","f":`...)
		dst = appendFloat(dst, f)
		return append(dst, '}'), nil
	case Str:
		dst = append(dst, `{"k":"str","s":`...)
		dst = appendString(dst, string(x))
		return append(dst, '}'), nil
	case *Struct:
		dst = append(dst, `{"k":"struct"`...)
		if len(x.fields) == 0 {
			return append(dst, '}'), nil
		}
		dst = append(dst, `,"n":[`...)
		for i, f := range x.fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, f.Name)
		}
		dst = append(dst, `],"e":[`...)
		for i, f := range x.fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendValue(dst, f.Value); err != nil {
				return nil, err
			}
		}
		return append(dst, "]}"...), nil
	case *Bag:
		return appendCollection(dst, `{"k":"bag"`, x.elems)
	case *List:
		return appendCollection(dst, `{"k":"list"`, x.elems)
	case *Set:
		return appendCollection(dst, `{"k":"set"`, x.elems)
	default:
		return nil, fmt.Errorf("encode: unsupported value %T", v)
	}
}

func appendCollection(dst []byte, head string, elems []Value) ([]byte, error) {
	dst = append(dst, head...)
	if len(elems) == 0 {
		return append(dst, '}'), nil
	}
	dst = append(dst, `,"e":[`...)
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendValue(dst, e); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendFloat formats a finite float as encoding/json does: like
// ECMAScript's Number-to-string, shortest round-trip digits, exponent form
// only below 1e-6 or from 1e21 up, and the exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7
		n := len(dst)
		if dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// htmlSafe reports the ASCII bytes encoding/json copies into a string
// literal unescaped: printable, and none of " \ < > &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// escaping: short escapes for \b \f \n \r \t, \u00XX for the other control
// bytes and for < > &, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
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

// maxDepth bounds the nesting of objects and arrays in a decoded input, as
// encoding/json's scanner does. Input comes off the network; without the
// bound a deep enough one would overflow the stack.
const maxDepth = 10000

// DecodeValue parses the tagged JSON wire form produced by EncodeValue.
// It rejects malformed JSON, trailing bytes, unknown or null members, and
// inputs nested deeper than maxDepth, always with an error.
func DecodeValue(data []byte) (Value, error) {
	d := decoder{data: data}
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return nil, d.syntaxError("after top-level value")
	}
	return v, nil
}

// decoder is the state of one DecodeValue call.
type decoder struct {
	data  []byte
	pos   int
	depth int

	// names and vals are stacks shared by every object being decoded: an
	// object pushes its struct names and elements above its parent's and
	// pops them when it has built its value, so a struct or collection
	// costs one exact-size slice instead of one grown by append.
	names []string
	vals  []Value

	buf    []byte            // unescaped string contents (slow path)
	intern map[string]string // struct field names seen so far in data
}

func (d *decoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("decode value: unexpected end of input %s", context)
	}
	return fmt.Errorf("decode value: invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// expect skips whitespace and consumes c.
func (d *decoder) expect(c byte, context string) error {
	d.skipSpace()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return d.syntaxError(context)
	}
	d.pos++
	return nil
}

// more reports, after a member of an object or array, whether another
// follows (a comma) or the container ends (its end byte).
func (d *decoder) more(end byte, context string) (bool, error) {
	d.skipSpace()
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ',':
			d.pos++
			return true, nil
		case end:
			d.pos++
			d.depth--
			return false, nil
		}
	}
	return false, d.syntaxError(context)
}

// open consumes the opening byte of an object or array and, unless the
// container is empty, reports that its first member follows.
func (d *decoder) open(c, end byte, context string) (bool, error) {
	if err := d.expect(c, context); err != nil {
		return false, err
	}
	if d.depth++; d.depth > maxDepth {
		return false, fmt.Errorf("decode value: exceeded max depth %d at offset %d", maxDepth, d.pos)
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == end {
		d.pos++
		d.depth--
		return false, nil
	}
	return true, nil
}

// value decodes one tagged value object.
func (d *decoder) value() (Value, error) {
	more, err := d.open('{', '}', "looking for beginning of value object")
	if err != nil {
		return nil, err
	}
	var (
		kind     Kind
		badKind  string
		hasB     bool
		b        bool
		hasI     bool
		i        int64
		hasF     bool
		f        float64
		hasS     bool
		s        string
		nameBase = len(d.names)
		valBase  = len(d.vals)
	)
	for more {
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if len(key) != 1 {
			return nil, fmt.Errorf("decode value: unknown member %q at offset %d", key, d.pos)
		}
		k := key[0]
		if err := d.expect(':', "after object key"); err != nil {
			return nil, err
		}
		switch k {
		case 'k':
			kb, err := d.str()
			if err != nil {
				return nil, err
			}
			if kind = kindNamed(kb); kind == 0 {
				badKind = string(kb)
			}
		case 'b':
			if b, err = d.boolean(); err != nil {
				return nil, err
			}
			hasB = true
		case 'i':
			if i, err = d.integer(); err != nil {
				return nil, err
			}
			hasI = true
		case 'f':
			if f, err = d.float(); err != nil {
				return nil, err
			}
			hasF = true
		case 's':
			sb, err := d.str()
			if err != nil {
				return nil, err
			}
			s, hasS = string(sb), true
		case 'n':
			// A repeated member replaces the earlier one, as in encoding/json.
			d.names = d.names[:nameBase]
			if err := d.nameList(); err != nil {
				return nil, err
			}
		case 'e':
			d.vals = d.vals[:valBase]
			if err := d.valueList(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("decode value: unknown member %q at offset %d", key, d.pos)
		}
		if more, err = d.more('}', "after object member"); err != nil {
			return nil, err
		}
	}

	// Pop this object's names and elements; the slices below stay valid
	// because nothing is pushed again before it returns.
	names, vals := d.names[nameBase:], d.vals[valBase:]
	d.names, d.vals = d.names[:nameBase], d.vals[:valBase]
	switch kind {
	case KindNull:
		return Null{}, nil
	case KindBool:
		if !hasB {
			return nil, errors.New("decode: bool without payload")
		}
		return Bool(b), nil
	case KindInt:
		if !hasI {
			return nil, errors.New("decode: int without payload")
		}
		return Int(i), nil
	case KindFloat:
		if !hasF {
			return nil, errors.New("decode: float without payload")
		}
		return Float(f), nil
	case KindString:
		if !hasS {
			return nil, errors.New("decode: str without payload")
		}
		return Str(s), nil
	case KindStruct:
		if len(names) != len(vals) {
			return nil, fmt.Errorf("decode: struct has %d names but %d values", len(names), len(vals))
		}
		fields := make([]Field, len(names))
		for j, name := range names {
			fields[j] = Field{Name: name, Value: vals[j]}
		}
		return StructFromFields(fields), nil
	case KindBag:
		return &Bag{elems: append(make([]Value, 0, len(vals)), vals...)}, nil
	case KindList:
		return &List{elems: append(make([]Value, 0, len(vals)), vals...)}, nil
	case KindSet:
		return NewSet(vals...), nil
	default:
		return nil, fmt.Errorf("decode: unknown kind %q", badKind)
	}
}

// kindNamed maps a wire kind tag to its Kind, or 0 for an unknown tag.
func kindNamed(tag []byte) Kind {
	switch string(tag) {
	case "null":
		return KindNull
	case "bool":
		return KindBool
	case "int":
		return KindInt
	case "float":
		return KindFloat
	case "str":
		return KindString
	case "struct":
		return KindStruct
	case "bag":
		return KindBag
	case "list":
		return KindList
	case "set":
		return KindSet
	default:
		return 0
	}
}

// nameList decodes an array of struct field names onto d.names, interning
// each: a shard's answer repeats the same few names once per row.
func (d *decoder) nameList() error {
	more, err := d.open('[', ']', "looking for beginning of name array")
	if err != nil {
		return err
	}
	for more {
		nb, err := d.str()
		if err != nil {
			return err
		}
		name, ok := d.intern[string(nb)]
		if !ok {
			if d.intern == nil {
				d.intern = make(map[string]string)
			}
			name = string(nb)
			d.intern[name] = name
		}
		d.names = append(d.names, name)
		if more, err = d.more(']', "after array element"); err != nil {
			return err
		}
	}
	return nil
}

// valueList decodes an array of value objects onto d.vals.
func (d *decoder) valueList() error {
	more, err := d.open('[', ']', "looking for beginning of element array")
	if err != nil {
		return err
	}
	for more {
		v, err := d.value()
		if err != nil {
			return err
		}
		d.vals = append(d.vals, v)
		if more, err = d.more(']', "after array element"); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) boolean() (bool, error) {
	d.skipSpace()
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false, nil
	}
	return false, d.syntaxError("looking for boolean")
}

// number consumes a JSON number token.
func (d *decoder) number() ([]byte, error) {
	d.skipSpace()
	start, p := d.pos, d.pos
	digits := func() int {
		n := 0
		for p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9' {
			p++
			n++
		}
		return n
	}
	fail := func(context string) error {
		d.pos = p
		return d.syntaxError(context)
	}
	if p < len(d.data) && d.data[p] == '-' {
		p++
	}
	switch {
	case p < len(d.data) && d.data[p] == '0':
		p++
	case digits() == 0:
		return nil, fail("looking for beginning of number")
	}
	if p < len(d.data) && d.data[p] == '.' {
		p++
		if digits() == 0 {
			return nil, fail("after decimal point in numeric literal")
		}
	}
	if p < len(d.data) && (d.data[p] == 'e' || d.data[p] == 'E') {
		p++
		if p < len(d.data) && (d.data[p] == '+' || d.data[p] == '-') {
			p++
		}
		if digits() == 0 {
			return nil, fail("in exponent of numeric literal")
		}
	}
	d.pos = p
	return d.data[start:p], nil
}

// integer decodes an int payload: a number token ParseInt takes, which is
// one with neither fraction nor exponent and within int64 — the tokens
// encoding/json stores into an int64.
func (d *decoder) integer() (int64, error) {
	start := d.pos
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	i, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("decode value: number %s is not an int64 at offset %d", tok, start)
	}
	return i, nil
}

// float decodes a float payload: any number token ParseFloat takes
// without a range error.
func (d *decoder) float() (float64, error) {
	start := d.pos
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("decode value: number %s is not a float64 at offset %d", tok, start)
	}
	return f, nil
}

// str decodes a JSON string literal with encoding/json's unquoting rules.
// The result aliases either the input (no escapes, all ASCII) or d.buf, so
// it is valid only until the next call.
func (d *decoder) str() ([]byte, error) {
	d.skipSpace()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.syntaxError("looking for beginning of string")
	}
	start := d.pos + 1
	for p := start; p < len(d.data); p++ {
		switch c := d.data[p]; {
		case c == '"':
			d.pos = p + 1
			return d.data[start:p], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.strSlow(start, p)
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxError("in string literal")
}

// strSlow finishes a string literal from p, the first byte that is an
// escape, a control byte or non-ASCII, unescaping into d.buf. Invalid UTF-8
// and unpaired surrogates become U+FFFD, as encoding/json's unquote makes
// them.
func (d *decoder) strSlow(start, p int) ([]byte, error) {
	buf := append(d.buf[:0], d.data[start:p]...)
	defer func() { d.buf = buf[:0] }()
	for p < len(d.data) {
		switch c := d.data[p]; {
		case c == '"':
			d.pos = p + 1
			return buf, nil
		case c < ' ':
			d.pos = p
			return nil, d.syntaxError("in string literal")
		case c < utf8.RuneSelf && c != '\\':
			buf = append(buf, c)
			p++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[p:])
			buf = utf8.AppendRune(buf, r)
			p += size
		default: // backslash
			if p+1 >= len(d.data) {
				d.pos = len(d.data)
				return nil, d.syntaxError("in string escape code")
			}
			switch e := d.data[p+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(d.data[p:])
				if r < 0 {
					d.pos = p
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				p += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(d.data[p:])); pair != utf8.RuneError {
						r = pair
						p += 6
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
				continue
			default:
				d.pos = p + 1
				return nil, d.syntaxError("in string escape code")
			}
			p += 2
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxError("in string literal")
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
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
		r = r<<4 | rune(c)
	}
	return r
}
