package store

// The WAL's on-disk record format is internal/frame's; these tests pin
// it from the store's side: what a segment holds must round-trip, tear
// and corrupt the way recovery assumes.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vdce/internal/frame"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte(`{"k":"submit","job":{"id":"job-1"}}`),
		bytes.Repeat([]byte("a"), 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = frame.Append(buf, p)
	}
	for i, want := range payloads {
		got, n, err := frame.Decode(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch (%d bytes vs %d)", i, len(got), len(want))
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeShortAndCorrupt(t *testing.T) {
	rec := frame.Append(nil, []byte("hello, durability"))

	for cut := 0; cut < len(rec); cut++ {
		_, _, err := frame.Decode(rec[:cut])
		if err != frame.ErrShort {
			t.Fatalf("cut at %d: err = %v, want ErrShort", cut, err)
		}
	}

	bad := bytes.Clone(rec)
	bad[frame.HeaderSize] ^= 1
	if _, _, err := frame.Decode(bad); err != frame.ErrChecksum {
		t.Fatalf("flipped payload byte: err = %v, want ErrChecksum", err)
	}

	var wild [frame.HeaderSize + 4]byte
	binary.LittleEndian.PutUint32(wild[0:4], frame.MaxPayload+1)
	if _, _, err := frame.Decode(wild[:]); err != frame.ErrLength {
		t.Fatalf("wild length: err = %v, want ErrLength", err)
	}
}

// FuzzDecodeWALRecord asserts the codec never panics and never returns
// success for a frame whose checksum would not verify — arbitrary torn,
// truncated, or bit-flipped input must land in one of the three typed
// errors.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame.Append(nil, []byte("seed")))
	f.Add(frame.Append(nil, nil))
	torn := frame.Append(nil, []byte("torn tail record"))
	f.Add(torn[:len(torn)-3])
	flipped := frame.Append(nil, []byte("flip"))
	flipped[frame.HeaderSize] ^= 0x80
	f.Add(flipped)
	var wild [frame.HeaderSize]byte
	binary.LittleEndian.PutUint32(wild[0:4], ^uint32(0))
	f.Add(wild[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := frame.Decode(data)
		if err != nil {
			if err != frame.ErrShort && err != frame.ErrLength && err != frame.ErrChecksum {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			return
		}
		if n < frame.HeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(payload) != n-frame.HeaderSize {
			t.Fatalf("payload %d bytes but frame consumed %d", len(payload), n)
		}
		// A successful decode must survive a re-encode byte-for-byte.
		if !bytes.Equal(frame.Append(nil, payload), data[:n]) {
			t.Fatal("decode/encode mismatch")
		}
	})
}
