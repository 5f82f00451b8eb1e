package tasklib

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"vdce/internal/dsp"
	"vdce/internal/linalg"
)

// codecCorpus is one value of every wire type, with the nil and empty
// forms that must survive a round trip distinct from each other.
func codecCorpus() []Value {
	return []Value{
		linalg.Identity(3),
		&linalg.Matrix{},
		(*linalg.Matrix)(nil),
		&LUResult{L: linalg.Identity(2), U: linalg.RandomMatrix(2, 2, 1), Perm: []int{1, 0}, Swaps: 1},
		&LUResult{U: linalg.Identity(1), Perm: []int{}, Swaps: -3},
		(*LUResult)(nil),
		[]float64{1, -2.5, math.Inf(1), math.SmallestNonzeroFloat64},
		[]float64{},
		[]float64(nil),
		[]Track{{ID: 1, X: 2, Y: -3, VX: 0.5, VY: -0.25, Class: "hostile", Strength: 0.9}, {ID: -7}},
		[]Track{},
		[]Track(nil),
		[]Threat{{TrackID: 1, Score: 9.5, Reason: "closing fast"}, {}},
		[]Threat{},
		[]Threat(nil),
		3.14,
		0.0,
		"hello",
		"",
		[]byte{0, 1, 2, 255},
		[]byte{},
		[]byte(nil),
		[]dsp.Peak{{Bin: 3, Power: 1.5}, {Bin: 1 << 40, Power: -1}},
		[]dsp.Peak{},
		[]dsp.Peak(nil),
		[]complex128{complex(1, -1), 0},
		[]complex128{},
		[]complex128(nil),
	}
}

func TestCodecRoundTripAndCanonicalForm(t *testing.T) {
	for _, v := range codecCorpus() {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("%T %v: encode: %v", v, v, err)
		}
		back, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("%T %v: decode: %v", v, v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("%T: round trip = %#v, want %#v", v, back, v)
		}
		again, err := EncodeValue(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%T %v: re-encoding a decoded value changed the bytes", v, v)
		}
	}
}

// TestChecksumAgreesAcrossTheWire pins what the canonical form is for:
// the Checksum task hashes EncodeValue's bytes, and must give the same
// answer for a value handed over in memory (RunLocal) and one that
// crossed a Data Manager channel.
func TestChecksumAgreesAcrossTheWire(t *testing.T) {
	spec, err := Default().Get("Checksum")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range codecCorpus() {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := DecodeValue(data)
		if err != nil {
			t.Fatal(err)
		}
		local, err := spec.Fn(&Context{In: []Value{v}})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := spec.Fn(&Context{In: []Value{moved}})
		if err != nil {
			t.Fatal(err)
		}
		if local[0] != remote[0] {
			t.Fatalf("%T %v: checksum %v locally, %v after transport", v, v, local[0], remote[0])
		}
	}
}

// TestValueSizeCoversEveryWireType pins ValueSize to AppendValue's type
// switch: every type the codec encodes has a case (some corpus value of
// it sizes above zero), a value the codec refuses sizes as 0, and
// sizing allocates nothing.
func TestValueSizeCoversEveryWireType(t *testing.T) {
	sized := map[reflect.Type]bool{}
	for _, v := range codecCorpus() {
		if _, err := EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(v)
		sized[typ] = sized[typ] || ValueSize(v) > 0
	}
	for typ, ok := range sized {
		if !ok {
			t.Errorf("no %v in the corpus sizes above zero: ValueSize has no case for it", typ)
		}
	}
	for _, c := range []struct {
		v    Value
		want int
	}{
		{linalg.Identity(3), 40 + 9*8},
		{(*linalg.Matrix)(nil), 0},
		{&LUResult{L: linalg.Identity(2), U: linalg.Identity(2), Perm: []int{1, 0}}, 48 + 2*(40+4*8) + 2*8},
		{(*LUResult)(nil), 0},
		{[]float64{1, 2, 3, 4}, 32},
		{[]Track{{Class: "hostile"}, {}}, 2*64 + 7},
		{[]Threat{{Reason: "closing fast"}}, 32 + 12},
		{3.14, 8},
		{"hello", 5},
		{[]byte{1, 2, 3}, 3},
		{[]dsp.Peak{{}, {}}, 32},
		{[]complex128{1, 2}, 32},
	} {
		if got := ValueSize(c.v); got != c.want {
			t.Errorf("ValueSize(%T %v) = %d, want %d", c.v, c.v, got, c.want)
		}
	}
	for _, v := range []Value{nil, 7, []int{1}, struct{}{}, linalg.Matrix{}} {
		if _, err := EncodeValue(v); err == nil {
			t.Fatalf("%T encodes: it belongs in the corpus", v)
		}
		if got := ValueSize(v); got != 0 {
			t.Errorf("ValueSize(%T) = %d for a value the codec refuses, want 0", v, got)
		}
	}
	corpus, total := codecCorpus(), 0
	if allocs := testing.AllocsPerRun(100, func() {
		for _, v := range corpus {
			total += ValueSize(v)
		}
	}); allocs != 0 {
		t.Errorf("ValueSize allocates %v times over the corpus, want 0", allocs)
	}
}

func TestEncodeUnknownType(t *testing.T) {
	for _, v := range []Value{nil, 7, []int{1}, struct{}{}, linalg.Matrix{}} {
		if _, err := EncodeValue(v); err == nil || !strings.Contains(err.Error(), "unknown value type") {
			t.Fatalf("%T: err = %v, want unknown value type", v, err)
		}
	}
	// AppendValue leaves dst alone on error.
	dst := []byte{9}
	if out, err := AppendValue(dst, 7); err == nil || !bytes.Equal(out, dst) {
		t.Fatalf("AppendValue on error: %v, %v", out, err)
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	// Every proper prefix of every encoding is truncated input.
	for _, v := range codecCorpus() {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if got, err := DecodeValue(data[:n]); err == nil {
				t.Fatalf("%T %v: %d of %d bytes decoded to %#v", v, v, n, len(data), got)
			}
		}
		if _, err := DecodeValue(append(data, 0)); err == nil {
			t.Fatalf("%T %v: trailing byte accepted", v, v)
		}
	}
	for _, tag := range []byte{0, tagComplexes + 1, 'j', 255} {
		if _, err := DecodeValue([]byte{tag, 1, 2, 3}); err == nil || !strings.Contains(err.Error(), "unknown type tag") {
			t.Fatalf("tag %d: err = %v, want unknown type tag", tag, err)
		}
	}
	// A length field that claims far more elements than bytes follow is
	// rejected before anything is allocated for it: were the claimed
	// 2^40 elements allocated, this test would not survive to report.
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, tag := range []byte{tagFloats, tagTracks, tagThreats, tagString, tagBytes, tagPeaks, tagComplexes} {
		data := append(append([]byte{tag}, huge...), make([]byte, 64)...)
		if _, err := DecodeValue(data); err == nil {
			t.Fatalf("tag %d: 2^40-element claim over 64 bytes accepted", tag)
		}
	}
	matrix := append(binary.AppendVarint(binary.AppendVarint([]byte{tagMatrix, 1}, 1<<20), 1<<20), huge...)
	if _, err := DecodeValue(matrix); err == nil {
		t.Fatal("matrix with a 2^40-element data claim accepted")
	}
	if _, err := DecodeValue([]byte{tagMatrix, 2}); err == nil {
		t.Fatal("presence byte 2 accepted")
	}
}

// FuzzDecodeValue: arbitrary bytes never panic the decoder, and whatever
// it accepts re-encodes to a fixed point (the bytes need not equal the
// input — varints have non-minimal spellings — but encoding what was
// decoded, decoding that and encoding again must change nothing).
func FuzzDecodeValue(f *testing.F) {
	for _, v := range codecCorpus() {
		data, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{tagFloats, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		if err != nil {
			return
		}
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", v, err)
		}
		if len(enc) > len(data) {
			t.Fatalf("canonical form (%d bytes) longer than an accepted spelling (%d)", len(enc), len(data))
		}
		v2, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v", err)
		}
		enc2, err := EncodeValue(v2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %x then %x (%v)", enc, enc2, err)
		}
	})
}
