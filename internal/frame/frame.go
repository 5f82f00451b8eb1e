// Package frame is the record framing the durable log and the Data
// Manager share: a 4-byte little-endian payload length, a 4-byte
// little-endian CRC-32 (IEEE) of the payload, then the payload. The WAL
// appends frames to its segments; the Data Manager builds one frame per
// out-port, checked on each receipt.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// HeaderSize is the length and checksum that precede every payload.
const HeaderSize = 8

// MaxPayload bounds one frame's payload. No legitimate WAL record comes
// within orders of magnitude of it; a declared length beyond it is
// corruption by definition, never a torn tail — which is what lets a
// reader treat "frame extends past the end of the input" as a
// truncatable torn write without a wild length field swallowing valid
// later frames.
const MaxPayload = 16 << 20

var (
	// ErrShort reports an incomplete frame: the buffer ends before the
	// declared frame does. Read more, or at the end of a log treat it as
	// a torn write.
	ErrShort = errors.New("frame: incomplete frame")
	// ErrLength and ErrChecksum report a frame that can never be valid
	// however many bytes follow.
	ErrLength   = errors.New("frame: declared length exceeds MaxPayload")
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// Append appends one framed payload to dst.
func Append(dst, payload []byte) []byte {
	var hdr [HeaderSize]byte
	start := len(dst)
	dst = append(append(dst, hdr[:]...), payload...)
	Seal(dst[start:])
	return dst
}

// Seal fills in the header of a frame assembled in place: f is
// HeaderSize reserved bytes followed by the payload.
func Seal(f []byte) {
	payload := f[HeaderSize:]
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(payload))
}

// PayloadLen returns the payload length a header declares; hdr holds at
// least HeaderSize bytes.
func PayloadLen(hdr []byte) int {
	return int(binary.LittleEndian.Uint32(hdr[0:4]))
}

// Decode decodes the first frame of buf, returning the payload
// (aliasing buf, not a copy) and the total bytes the frame consumed.
func Decode(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < HeaderSize {
		return nil, 0, ErrShort
	}
	length := PayloadLen(buf)
	if length > MaxPayload {
		return nil, 0, ErrLength
	}
	end := HeaderSize + length
	if len(buf) < end {
		return nil, 0, ErrShort
	}
	payload = buf[HeaderSize:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, ErrChecksum
	}
	return payload, end, nil
}
