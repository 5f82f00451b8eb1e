package jsonw

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fields carries one field per helper under the tag the helper stands
// for; encoding/json over it is the reference.
type fields struct {
	S string            `json:"s,omitempty"`
	I int               `json:"i,omitempty"`
	D time.Duration     `json:"d,omitempty"`
	U uint64            `json:"u,omitempty"`
	B bool              `json:"b,omitempty"`
	T time.Time         `json:"t,omitzero"`
	F float64           `json:"f,omitempty"`
	M map[string]string `json:"m,omitempty"`
	L []string          `json:"l,omitempty"`
}

func (v fields) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = AppendStringField(dst, `"s":`, v.S)
	dst = AppendIntField(dst, `"i":`, v.I)
	dst = AppendIntField(dst, `"d":`, v.D)
	dst = AppendUintField(dst, `"u":`, v.U)
	dst = AppendTrueField(dst, `"b":`, v.B)
	dst = AppendTimeField(dst, `"t":`, v.T)
	dst = AppendFloatField(dst, `"f":`, v.F)
	if len(v.M) > 0 {
		dst = AppendMap(AppendKey(dst, `"m":`), v.M, AppendString)
	}
	if len(v.L) > 0 {
		dst = AppendList(AppendKey(dst, `"l":`), v.L, AppendString)
	}
	return append(dst, '}')
}

func TestFieldHelpersMatchEncodingJSON(t *testing.T) {
	many := make(map[string]string)
	for _, k := range []string{"z", "a", "<k>", "m", "b", "y", "c", "x", "d", "w"} {
		many[k] = k + "&"
	}
	for _, v := range []fields{
		{},
		{S: `<"&>`, I: -7, D: 1500 * time.Millisecond, U: 1<<64 - 1, B: true, F: 1e-7,
			T: time.Date(2026, 10, 3, 1, 2, 3, 40, time.FixedZone("", -7*3600)), M: many},
		{I: 1, F: 2.5e21, T: time.Unix(0, 0).UTC(), M: map[string]string{"": ""}},
		{B: true, L: []string{"one"}},
		{L: []string{"", "<two>", "three"}},
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.appendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("got  %s\nwant %s", got, want)
		}
	}
}
