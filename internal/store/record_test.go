package store

// The WAL's on-disk record format is internal/frame's; these tests pin
// it from the store's side: what a segment holds must round-trip, tear
// and corrupt the way recovery assumes.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
// errors — and that every payload replay would accept as a record is
// re-encoded by the append encoder to exactly what json.Marshal writes.
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
	corpus := encodeCorpus()
	for i := range corpus {
		f.Add(frame.Append(nil, appendRecord(nil, &corpus[i])))
		f.Add(appendRecord(nil, &corpus[i]))
	}
	f.Add([]byte(`{"k":"submit","job":{"id":"job-1","graph": {"name" : "<g>"},"labels":{"b":"","a":"\u2028"},"deadline":"2026-08-01T12:00:03.5+05:30"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := frame.Decode(data)
		if err != nil {
			if err != frame.ErrShort && err != frame.ErrLength && err != frame.ErrChecksum {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			// A mutation rarely keeps a checksum valid: let the input stand
			// in for a payload too, so the record encoder is fuzzed as well.
			checkRecordEncoding(t, data)
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
		checkRecordEncoding(t, payload)
	})
}

// checkRecordEncoding: a payload replay accepts as a record re-encodes,
// through the append encoder, to what json.Marshal writes for it.
func checkRecordEncoding(t *testing.T, payload []byte) {
	var rec record
	if json.Unmarshal(payload, &rec) != nil {
		return
	}
	// A raw graph is carried verbatim where json.Marshal would compact
	// and escape it; put it in that form first, as the writers do.
	canonical := func(raw *json.RawMessage) {
		if len(*raw) > 0 {
			*raw, _ = json.Marshal(*raw)
		}
	}
	canonical(&rec.Graph)
	if rec.Job != nil {
		canonical(&rec.Job.Graph)
	}
	want, err := json.Marshal(&rec)
	if err != nil {
		return // a time json refuses to write (year past 9999)
	}
	if got := appendRecord(nil, &rec); !bytes.Equal(got, want) {
		t.Fatalf("append encoder differs from json.Marshal:\ngot  %s\nwant %s", got, want)
	}
}
