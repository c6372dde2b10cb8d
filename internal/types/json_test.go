package types

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWireRoundTripExamples(t *testing.T) {
	values := []Value{
		Null{},
		Bool(true),
		Int(-42),
		Float(2.5),
		Str(`quoted "text"`),
		NewStruct(Field{"name", Str("Mary")}, Field{"salary", Int(200)}),
		NewBag(Str("Mary"), Str("Sam"), Str("Mary")),
		NewList(Int(1), Int(2), Int(3)),
		NewSet(Int(1), Int(2)),
		NewBag(NewStruct(Field{"inner", NewBag(Int(1))})),
	}
	for _, v := range values {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %s: %v", v, err)
		}
		got, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip: got %s, want %s", got, v)
		}
	}
}

func TestWireKindsPreserved(t *testing.T) {
	// Plain JSON would conflate these; the tagged encoding must not.
	data, err := EncodeValue(Int(2))
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeValue(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != KindInt {
		t.Errorf("Int decoded as %s", v.Kind())
	}

	data, err = EncodeValue(Float(2))
	if err != nil {
		t.Fatal(err)
	}
	v, err = DecodeValue(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != KindFloat {
		t.Errorf("Float decoded as %s", v.Kind())
	}
}

// Inputs the decoder refuses: the reference's semantic errors, malformed
// JSON, and members the encoder never writes (a null, an unknown key). The
// decoder may be stricter than the reference, never looser.
func TestDecodeErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"k":"mystery"}`,
		`{"k":"int"}`,
		`{"k":"bool"}`,
		`{"k":"float"}`,
		`{"k":"str"}`,
		`{"k":"struct","n":["a"],"e":[]}`,
		``,
		` `,
		`null`,
		`5`,
		`[]`,
		`{"k":"int","i":1} x`,
		`{"k":"int","i":1}{}`,
		`{"k":"int","i":1,}`,
		`{"k":"int" "i":1}`,
		`{"k":"int","i":1`,
		`{"k":"int","i":01}`,
		`{"k":"int","i":1.5}`,
		`{"k":"int","i":1e2}`,
		`{"k":"int","i":9223372036854775808}`,
		`{"k":"int","i":"1"}`,
		`{"k":"int","i":-}`,
		`{"k":"float","f":1.}`,
		`{"k":"float","f":.5}`,
		`{"k":"float","f":1e}`,
		`{"k":"float","f":1e400}`,
		`{"k":"float","f":NaN}`,
		`{"k":"bool","b":tru}`,
		`{"k":"bool","b":null}`,
		`{"k":null}`,
		`{"k":"str","s":"\x"}`,
		`{"k":"str","s":"\'"}`,
		`{"k":"str","s":"\u12"}`,
		"{\"k\":\"str\",\"s\":\"tab\there\"}",
		`{"k":"str","s":"unterminated}`,
		`{"K":"int","i":1}`,
		`{"k":"int","i":1,"extra":2}`,
		`{"k":"bag","e":[5]}`,
		`{"k":"bag","e":[{"k":"int","i":1},]}`,
		`{"k":"bag","e":{}}`,
		`{"k":"bag","e":null}`,
		`{"k":"struct","n":["a",5],"e":[{"k":"null"},{"k":"null"}]}`,
		`{"k":"struct","n":["a"]}`,
	}
	for _, data := range bad {
		if v, err := DecodeValue([]byte(data)); err == nil {
			t.Errorf("DecodeValue(%s) = %s, want an error", data, v)
		}
	}
}

// Property: encode/decode is the identity on arbitrary values, and the
// encoder writes the reference codec's bytes.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(g genValue) bool {
		data, err := EncodeValue(g.V)
		if err != nil {
			return false
		}
		if want, err := specEncode(g.V); err != nil || !bytes.Equal(data, want) {
			return false
		}
		got, err := DecodeValue(data)
		if err != nil {
			return false
		}
		return got.Equal(g.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The encoder must write exactly the bytes of the reference codec
// (json_spec_test.go) — every escaping and float-formatting rule of
// encoding/json included — so that no reader of the wire can tell them
// apart.
func TestEncodeMatchesSpec(t *testing.T) {
	deep := Value(Int(1))
	for i := 0; i < 300; i++ {
		deep = NewList(NewStruct(Field{"d", deep}))
	}
	values := []Value{
		Str(`<>&`),
		Str("\n"),
		Str("\x01"),
		Str("\b\f\r\t\x1f\x7f"),
		Str(`quoted "text" \ back/slash`),
		Str("\xff\xfe bad \xc3 utf-8 \xed\xa0\x80"),
		Str("\u2028 and \u2029"),
		Str("h\u00e9llo, \u4e16\u754c \U0001f389 \ufffd"),
		Str(""),
		Float(1e21),
		Float(-1e21),
		Float(1e20),
		Float(1e-7),
		Float(1e-6),
		Float(-1e-7),
		Float(math.Copysign(0, -1)),
		Float(0),
		Float(math.MaxFloat64),
		Float(math.SmallestNonzeroFloat64),
		Float(123456789.125),
		Float(1.0 / 3),
		Int(math.MinInt64),
		Int(math.MaxInt64),
		Int(0),
		Bool(true),
		Bool(false),
		Null{},
		NewStruct(),
		NewBag(),
		NewList(),
		NewSet(),
		NewStruct(Field{"<name>", Str("a&b")}, Field{"", Int(1)}, Field{"\u2028", NewBag()}),
		NewBag(NewStruct(Field{"id", Int(7)}, Field{"name", Str("person-000007")}, Field{"salary", Int(813)})),
		NewSet(NewList(Float(2.5), Null{}), NewStruct()),
		deep,
	}
	for _, v := range values {
		got, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("EncodeValue(%s): %v", v, err)
		}
		want, err := specEncode(v)
		if err != nil {
			t.Fatalf("specEncode(%s): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeValue(%s)\n got %s\nwant %s", v, got, want)
		}
		// Invalid UTF-8 does not survive the trip (it becomes U+FFFD), so
		// the round trip is checked against the spec's reading.
		back, err := DecodeValue(got)
		if err != nil {
			t.Fatalf("DecodeValue(%s): %v", got, err)
		}
		if sv, err := specDecode(got); err != nil || back.Kind() != sv.Kind() || !back.Equal(sv) {
			t.Errorf("DecodeValue(%s) = %s, spec gives %v (%v)", got, back, sv, err)
		}
	}
}

// NaN and the infinities have no JSON form: both codecs refuse them, with
// the same error, at any depth.
func TestEncodeNonFiniteFails(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []Value{
			Float(f),
			NewBag(Int(1), NewStruct(Field{"x", Float(f)})),
		} {
			got, err := EncodeValue(v)
			_, serr := specEncode(v)
			if err == nil || serr == nil {
				t.Fatalf("encode %s: got (%s, %v), spec error %v; want both to fail", v, got, err, serr)
			}
			if err.Error() != serr.Error() {
				t.Errorf("encode %s: error %q, spec says %q", v, err, serr)
			}
			var uve *json.UnsupportedValueError
			if !errors.As(err, &uve) {
				t.Errorf("encode %s: error %T, want *json.UnsupportedValueError", v, err)
			}
		}
	}
}

// Inputs the encoder never writes but the reference decoder reads: the
// decoder takes each to the same value, or refuses it.
func TestDecodeMatchesSpec(t *testing.T) {
	inputs := []string{
		` { "k" : "int" , "i" : -0 } `,
		"{\n\t\"k\":\"float\",\r\n\"f\":1E+2}",
		`{"i":5,"k":"int"}`,
		`{"e":[{"k":"int","i":1}],"n":["a"],"k":"struct"}`,
		`{"k":"int","i":1,"i":2}`,
		`{"k":"zz","k":"bool","b":false}`,
		`{"k":"bag","e":[{"k":"int","i":1}],"e":[]}`,
		`{"k":"struct","n":["a","a"],"e":[{"k":"int","i":1},{"k":"int","i":2}]}`,
		`{"k":"set","e":[{"k":"int","i":1},{"k":"float","f":1}]}`,
		`{"k":"null","i":5,"s":"ignored"}`,
		`{"k":"list","n":["ignored"]}`,
		`{"k":"str","s":"Aé世🎉\/\b\f\n\r\t\"\\"}`,
		`{"k":"str","s":"lone \ud800 high, lone \udc00 low, \ud800\ud800 twice"}`,
		`{"k":"str","s":"\ud83cA"}`,
		`{"k":"str","s":"pair \ud83c\udf89, \uD83C\uDF89 upper-case"}`,
		"{\"k\":\"str\",\"s\":\"raw \xff\xfe and \xed\xa0\x80\"}",
		`{"k":"int","i":3}`,
		`{"k":"float","f":1e-400}`,
		`{"k":"float","f":-0.0}`,
		`{"k":"int","i":-9223372036854775808}`,
		`{"k":"int","i":9223372036854775807}`,
	}
	for _, in := range inputs {
		want, serr := specDecode([]byte(in))
		if serr != nil {
			t.Fatalf("spec rejects %s: %v", in, serr)
		}
		got, err := DecodeValue([]byte(in))
		if err != nil {
			t.Errorf("DecodeValue(%s): %v (spec gives %s)", in, err, want)
			continue
		}
		if got.Kind() != want.Kind() || !got.Equal(want) {
			t.Errorf("DecodeValue(%s) = %s, spec gives %s", in, got, want)
		}
	}
}

// A network peer controls the nesting depth of what it sends. Past
// encoding/json's 10 000 levels the decoder must return an error, not
// recurse until the stack overflows; within the bound it decodes.
func TestDecodeDepthBomb(t *testing.T) {
	bomb := func(levels int) []byte {
		var b bytes.Buffer
		for i := 0; i < levels; i++ {
			b.WriteString(`{"k":"list","e":[`)
		}
		b.WriteString(`{"k":"null"}`)
		for i := 0; i < levels; i++ {
			b.WriteString(`]}`)
		}
		return b.Bytes()
	}
	for _, levels := range []int{maxDepth / 2, 1 << 20} {
		data := bomb(levels)
		_, err := DecodeValue(data)
		_, serr := specDecode(data)
		if (err == nil) != (serr == nil) {
			t.Errorf("%d levels: decoder error %v, spec error %v", levels, err, serr)
		}
		if levels > maxDepth && (err == nil || !strings.Contains(err.Error(), "exceeded max depth")) {
			t.Errorf("%d levels: error %v, want the depth bound", levels, err)
		}
	}
	// An unterminated bomb fails on depth, before the missing tail.
	if _, err := DecodeValue(bytes.Repeat([]byte(`{"k":"bag","e":[`), 1<<20)); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Errorf("unterminated bomb: %v", err)
	}
}
