package types

import (
	"encoding/json"
	"fmt"
)

// The reference codec: the tagged JSON wire form written as Go struct tags
// and run through encoding/json, one json.Marshal per element and one
// json.Unmarshal per nested value. It is what the wire format means;
// EncodeValue must write exactly the bytes specEncode writes, and whatever
// DecodeValue accepts specDecode must accept as an equal value. Only tests
// call it.

type wireValue struct {
	K string            `json:"k"`
	B *bool             `json:"b,omitempty"`
	I *int64            `json:"i,omitempty"`
	F *float64          `json:"f,omitempty"`
	S *string           `json:"s,omitempty"`
	N []string          `json:"n,omitempty"` // struct field names
	E []json.RawMessage `json:"e,omitempty"` // struct field values / collection elements
}

func specEncode(v Value) ([]byte, error) {
	w, err := toWire(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

func specDecode(data []byte) (Value, error) {
	var w wireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("decode value: %w", err)
	}
	return fromWire(&w)
}

func toWire(v Value) (*wireValue, error) {
	switch x := v.(type) {
	case Null:
		return &wireValue{K: "null"}, nil
	case Bool:
		b := bool(x)
		return &wireValue{K: "bool", B: &b}, nil
	case Int:
		i := int64(x)
		return &wireValue{K: "int", I: &i}, nil
	case Float:
		f := float64(x)
		return &wireValue{K: "float", F: &f}, nil
	case Str:
		s := string(x)
		return &wireValue{K: "str", S: &s}, nil
	case *Struct:
		w := &wireValue{K: "struct"}
		for _, f := range x.Fields() {
			raw, err := specEncode(f.Value)
			if err != nil {
				return nil, err
			}
			w.N = append(w.N, f.Name)
			w.E = append(w.E, raw)
		}
		return w, nil
	case *Bag:
		return collectionToWire("bag", x.Elems())
	case *List:
		return collectionToWire("list", x.Elems())
	case *Set:
		return collectionToWire("set", x.Elems())
	default:
		return nil, fmt.Errorf("encode: unsupported value %T", v)
	}
}

func collectionToWire(kind string, elems []Value) (*wireValue, error) {
	w := &wireValue{K: kind, E: make([]json.RawMessage, 0, len(elems))}
	for _, e := range elems {
		raw, err := specEncode(e)
		if err != nil {
			return nil, err
		}
		w.E = append(w.E, raw)
	}
	return w, nil
}

func fromWire(w *wireValue) (Value, error) {
	switch w.K {
	case "null":
		return Null{}, nil
	case "bool":
		if w.B == nil {
			return nil, fmt.Errorf("decode: bool without payload")
		}
		return Bool(*w.B), nil
	case "int":
		if w.I == nil {
			return nil, fmt.Errorf("decode: int without payload")
		}
		return Int(*w.I), nil
	case "float":
		if w.F == nil {
			return nil, fmt.Errorf("decode: float without payload")
		}
		return Float(*w.F), nil
	case "str":
		if w.S == nil {
			return nil, fmt.Errorf("decode: str without payload")
		}
		return Str(*w.S), nil
	case "struct":
		if len(w.N) != len(w.E) {
			return nil, fmt.Errorf("decode: struct has %d names but %d values", len(w.N), len(w.E))
		}
		fields := make([]Field, 0, len(w.N))
		for i, name := range w.N {
			v, err := specDecode(w.E[i])
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Name: name, Value: v})
		}
		return NewStruct(fields...), nil
	case "bag", "list", "set":
		elems := make([]Value, 0, len(w.E))
		for _, raw := range w.E {
			v, err := specDecode(raw)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		switch w.K {
		case "bag":
			return NewBag(elems...), nil
		case "list":
			return NewList(elems...), nil
		default:
			return NewSet(elems...), nil
		}
	default:
		return nil, fmt.Errorf("decode: unknown kind %q", w.K)
	}
}
