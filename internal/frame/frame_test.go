package frame

import (
	"bytes"
	"testing"
)

// TestSealInPlaceMatchesAppend pins the Data Manager's way of building a
// frame — reserve the header, append the payload, Seal — to the WAL's
// Append, and PayloadLen to what a reader needs before the payload has
// arrived. A payload changed after sealing fails its checksum until it
// is sealed again.
func TestSealInPlaceMatchesAppend(t *testing.T) {
	payload := []byte("type tag + value")
	f := append(make([]byte, HeaderSize), payload...)
	Seal(f)
	if want := Append(nil, payload); !bytes.Equal(f, want) {
		t.Fatalf("sealed in place %x, appended %x", f, want)
	}
	if got := PayloadLen(f[:HeaderSize]); got != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", got, len(payload))
	}
	f[HeaderSize] ^= 0xff // patch the payload: the old checksum is stale
	if _, _, err := Decode(f); err != ErrChecksum {
		t.Fatalf("stale checksum: err = %v, want ErrChecksum", err)
	}
	Seal(f)
	got, n, err := Decode(f)
	if err != nil || n != len(f) || !bytes.Equal(got, f[HeaderSize:]) {
		t.Fatalf("resealed frame: payload %x, n %d, err %v", got, n, err)
	}
	// Append extends dst without disturbing what it already holds.
	two := Append(Append(nil, []byte("a")), []byte("bc"))
	first, n, err := Decode(two)
	if err != nil || string(first) != "a" {
		t.Fatalf("first of two: %q, %v", first, err)
	}
	if second, _, err := Decode(two[n:]); err != nil || string(second) != "bc" {
		t.Fatalf("second of two: %q, %v", second, err)
	}
}
