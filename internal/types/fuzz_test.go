package types

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeValue checks the wire decoder against the reference codec
// (json_spec_test.go) on arbitrary bytes: it never panics; whatever it
// accepts the reference accepts too, as an equal value of the same kind;
// whatever it accepts re-encodes and decodes to an equal value; and it
// accepts every input that is the reference's own encoding of what the
// reference read.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{
		Int(5),
		Str("x"),
		NewBag(NewStruct(Field{"a", Float(1.5)})),
		NewSet(Bool(true), Null{}),
		NewList(NewStruct(), NewBag(), Str("< >\xff")),
	} {
		data, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"k":"int"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"k":"struct","n":["a","b"],"e":[{"k":"int","i":1}]}`))
	f.Add([]byte(` {"e":[{"k":"float","f":-1E-7}],"k":"set"} `))
	f.Add([]byte(`{"k":"str","s":"🎉\ud800A\/"}`))
	f.Add([]byte(`{"k":"list","e":[{"k":"list","e":[{"k":"list","e":[]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		sv, serr := specDecode(data)
		if err != nil {
			if serr == nil {
				if canon, cerr := specEncode(sv); cerr == nil && bytes.Equal(canon, data) {
					t.Fatalf("decoder rejects the canonical encoding %q of %s: %v", data, sv, err)
				}
			}
			return
		}
		if serr != nil {
			t.Fatalf("decoder accepts %q as %s, the spec rejects it: %v", data, v, serr)
		}
		if v.Kind() != sv.Kind() || !v.Equal(sv) {
			t.Fatalf("decoder reads %q as %s, the spec as %s", data, v, sv)
		}
		re, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded value %s does not re-encode: %v", v, err)
		}
		back, err := DecodeValue(re)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if back.Kind() != v.Kind() || !back.Equal(v) {
			t.Fatalf("codec round trip mismatch: %s vs %s", v, back)
		}
	})
}

// FuzzEncodeMatchesSpec checks that the encoder writes exactly the reference
// codec's bytes, or fails with exactly its error, for values built around
// an arbitrary string, float and integer — and that what it writes decodes
// to the value the reference reads from it.
func FuzzEncodeMatchesSpec(f *testing.F) {
	f.Add("plain", 2.5, int64(42))
	f.Add("<>&\n\x01  ", 1e21, int64(math.MinInt64))
	f.Add("\xff\xfe\xed\xa0\x80", 1e-7, int64(math.MaxInt64))
	f.Add("héllo \U0001f389", math.SmallestNonzeroFloat64, int64(-1))
	f.Add("", math.Copysign(0, -1), int64(0))
	f.Add("nan", math.NaN(), int64(1))
	f.Add("inf", math.Inf(-1), int64(1))
	f.Fuzz(func(t *testing.T, s string, x float64, i int64) {
		v := NewBag(
			Str(s), Float(x), Int(i),
			NewStruct(Field{s, Float(x)}, Field{"i", Int(i)}, Field{"empty", NewStruct()}),
			NewList(Str(s), NewSet(Int(i), Float(x)), NewList()),
		)
		got, err := EncodeValue(v)
		want, serr := specEncode(v)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("encode %s: error %v, spec error %v", v, err, serr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %s\n got %s\nwant %s", v, got, want)
		}
		back, err := DecodeValue(got)
		if err != nil {
			t.Fatalf("DecodeValue(%s): %v", got, err)
		}
		sv, err := specDecode(got)
		if err != nil {
			t.Fatalf("specDecode(%s): %v", got, err)
		}
		if !back.Equal(sv) {
			t.Fatalf("DecodeValue(%s) = %s, spec gives %s", got, back, sv)
		}
	})
}
