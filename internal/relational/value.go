// Package relational is a small in-memory relational engine: typed values,
// tables, and a query representation supporting selections, projections,
// multi-way equi-joins, grouping with the standard SQL aggregates, DISTINCT
// and LIMIT. It is the substrate that MySQL provided in the paper's
// experiments: query pricing only needs a deterministic function Q(D) whose
// outputs can be compared across neighboring database instances.
package relational

import (
	"fmt"
	"math"
	"strconv"
)

// Kind is the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindString is a string.
	KindString
)

// String names the kind for error messages ("int", "float", ...).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed cell value. The zero value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsFloat coerces a numeric value to float64 (NULL and strings yield 0).
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// Equal reports value equality with numeric cross-kind coercion
// (Int(3) == Float(3.0)); NULL equals only NULL.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare orders values: NULL < numbers < strings; numbers compare
// numerically across Int/Float. Returns -1, 0 or 1.
func (v Value) Compare(o Value) int {
	r1, r2 := v.rank(), o.rank()
	if r1 != r2 {
		if r1 < r2 {
			return -1
		}
		return 1
	}
	switch r1 {
	case 0: // both null
		return 0
	case 1: // both numeric
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default: // both strings
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
}

func (v Value) rank() int {
	switch v.K {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// String renders the value for display and canonical result encoding.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		// Canonical float rendering; -0 normalizes to 0 so fingerprints of
		// equal results agree.
		f := v.F
		if f == 0 {
			f = 0
		}
		return strconv.FormatFloat(f, 'g', 17, 64)
	default:
		return v.S
	}
}

// SameKey reports whether two non-NULL values have identical canonical
// encodings (AppendEncode) — the equality of a hash-join condition, under
// which Int(1) and Float(1) differ, -0.0 equals 0.0, and NULL matches
// nothing, not even NULL.
func SameKey(a, b Value) bool {
	if a.K != b.K || a.K == KindNull {
		return false
	}
	switch a.K {
	case KindInt:
		return a.I == b.I
	case KindFloat:
		x, y := a.F, b.F
		if x == 0 {
			x = 0 // normalize -0, as AppendEncode does
		}
		if y == 0 {
			y = 0
		}
		return math.Float64bits(x) == math.Float64bits(y)
	default:
		return a.S == b.S
	}
}

// KeyHash returns a 64-bit hash of the value's canonical encoding without
// materializing it: values SameKey equates hash equally. Distinct
// encodings may collide, so every index keyed by KeyHash confirms a hit
// with SameKey; a collision costs a comparison, never a wrong match.
func (v Value) KeyHash() uint64 {
	const (
		kInt   = 0xa0761d6478bd642f
		kFloat = 0xe7037ed1a0b428db
		kStr   = 0x8ebc6af09c88c6e3
	)
	switch v.K {
	case KindInt:
		return hashMix(uint64(v.I)^kInt, kStr|1)
	case KindFloat:
		f := v.F
		if f == 0 {
			f = 0 // normalize -0, as AppendEncode does
		}
		return hashMix(math.Float64bits(f)^kFloat, kStr|1)
	case KindString:
		return hashString(v.S, kStr)
	}
	return 0 // NULL: never looked up, since NULL keys never join
}

// hashString is HashBytes over a string's bytes, seeded so string keys
// and numeric keys draw from different hash families.
func hashString(s string, seed uint64) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xff51afd7ed558ccd
		k2 = 0xc4ceb9fe1a85ec53
	)
	h := seed ^ k0 ^ hashMix(uint64(len(s))+1, k1)
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = hashMix(h^w, k2)
	}
	if len(s) > 0 {
		var tail uint64
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * uint(i))
		}
		h = hashMix(h^tail, k1)
	}
	return h
}

// AppendEncode appends a canonical, injective byte encoding of the value,
// used for result fingerprints and group-by keys.
func (v Value) AppendEncode(b []byte) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case KindInt:
		u := uint64(v.I)
		for s := 56; s >= 0; s -= 8 {
			b = append(b, byte(u>>s))
		}
	case KindFloat:
		f := v.F
		if f == 0 {
			f = 0 // normalize -0
		}
		u := math.Float64bits(f)
		for s := 56; s >= 0; s -= 8 {
			b = append(b, byte(u>>s))
		}
	case KindString:
		n := uint32(len(v.S))
		b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		b = append(b, v.S...)
	}
	return b
}
