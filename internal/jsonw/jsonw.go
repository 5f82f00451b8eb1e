// Package jsonw is the append-style JSON writer behind the hand-written
// encoders (the job-status wire form, WAL records and snapshots, the
// application flow graph): each helper appends to a caller's buffer
// exactly the bytes encoding/json would render for the same value and
// struct tag, so json.Unmarshal over the tags stays the only reader.
package jsonw

import (
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendKey appends an object key, preceded by a comma unless it is the
// first one after the opening brace.
func AppendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// AppendStringField appends key and v unless v is empty (omitempty).
func AppendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return AppendString(AppendKey(dst, key), v)
}

// AppendIntField appends key and v unless v is zero (omitempty).
func AppendIntField[T ~int | ~int64](dst []byte, key string, v T) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(AppendKey(dst, key), int64(v), 10)
}

// AppendUintField appends key and v unless v is zero (omitempty).
func AppendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(AppendKey(dst, key), v, 10)
}

// AppendTrueField appends key and true when v is set (a bool under
// omitempty).
func AppendTrueField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(AppendKey(dst, key), "true"...)
}

// AppendTimeField appends key and t unless t is the zero time (omitzero).
func AppendTimeField(dst []byte, key string, t time.Time) []byte {
	if t.IsZero() {
		return dst
	}
	return AppendTime(AppendKey(dst, key), t)
}

// AppendTime appends t as time.Time.MarshalJSON renders it. Years
// outside [0, 9999], which MarshalJSON refuses, cannot come off a clock.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// AppendFloatField appends key and f unless f is zero (omitempty), in
// encoding/json's ES6-style number format. The fields are durations in
// seconds; a non-finite value has no JSON form and is left out too.
func AppendFloatField(dst []byte, key string, f float64) []byte {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return dst
	}
	dst = AppendKey(dst, key)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendList appends a list as an array, val writing each element.
func AppendList[T any](dst []byte, list []T, val func([]byte, T) []byte) []byte {
	dst = append(dst, '[')
	for i, v := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = val(dst, v)
	}
	return append(dst, ']')
}

// AppendMap appends a map as an object, val writing each value, with
// the keys sorted as encoding/json sorts them. The usual handful of keys
// is sorted on the stack.
func AppendMap[V any](dst []byte, m map[string]V, val func([]byte, V) []byte) []byte {
	var stack [8]string
	keys := stack[:0]
	if len(m) > len(stack) {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = val(append(AppendString(dst, k), ':'), m[k])
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal exactly as
// encoding/json writes one with HTML escaping on: ", \ and control
// characters escaped, <, > and & as \u00XX, invalid UTF-8 as \ufffd,
// U+2028 and U+2029 as \u2028 and \u2029.
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
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
