package tasklib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"vdce/internal/dsp"
	"vdce/internal/linalg"
)

// Wire form of a Value: one type tag byte, then the body. Integers are
// zigzag varints, floats their IEEE-754 bits as 8 little-endian bytes,
// strings and slices a uvarint of len+1 (0 is a nil slice) followed by
// the elements, pointers a presence byte followed by the pointee. The
// encoder is canonical — equal values encode to equal bytes, and a
// decoded value re-encodes to the bytes it came from — which is what
// lets the Checksum task agree between RunLocal and a distributed run.
// Tag values are part of the wire form; append, never renumber.
const (
	tagMatrix byte = iota + 1
	tagLUResult
	tagFloats
	tagTracks
	tagThreats
	tagFloat
	tagString
	tagBytes
	tagPeaks
	tagComplexes
)

// encPool recycles EncodeValue's scratch buffers: the value is encoded
// into a pooled buffer that has already grown to the sizes in use and
// copied out at its exact length, one allocation per call.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// EncodeValue encodes a Value for transport. Only the types the task
// libraries exchange are known; any other type is an error.
func EncodeValue(v Value) ([]byte, error) {
	bp := encPool.Get().(*[]byte)
	buf, err := AppendValue((*bp)[:0], v)
	*bp = buf
	var out []byte
	if err == nil {
		out = append(make([]byte, 0, len(buf)), buf...)
	}
	encPool.Put(bp)
	return out, err
}

// AppendValue appends the wire form of v to dst and returns the extended
// slice; the Data Manager encodes straight into its frame buffers with
// it. On error dst is returned unextended.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case *linalg.Matrix:
		return appendMatrix(append(dst, tagMatrix), x), nil
	case *LUResult:
		b := append(dst, tagLUResult)
		if x == nil {
			return append(b, 0), nil
		}
		b = appendMatrix(appendMatrix(append(b, 1), x.L), x.U)
		b = appendLen(b, len(x.Perm), x.Perm == nil)
		for _, p := range x.Perm {
			b = binary.AppendVarint(b, int64(p))
		}
		return binary.AppendVarint(b, int64(x.Swaps)), nil
	case []float64:
		return appendFloats(append(dst, tagFloats), x), nil
	case []Track:
		b := appendLen(append(dst, tagTracks), len(x), x == nil)
		for i := range x {
			t := &x[i]
			b = binary.AppendVarint(b, int64(t.ID))
			b = appendFloat(appendFloat(appendFloat(appendFloat(b, t.X), t.Y), t.VX), t.VY)
			b = appendFloat(appendString(b, t.Class), t.Strength)
		}
		return b, nil
	case []Threat:
		b := appendLen(append(dst, tagThreats), len(x), x == nil)
		for i := range x {
			t := &x[i]
			b = appendFloat(binary.AppendVarint(b, int64(t.TrackID)), t.Score)
			b = appendString(b, t.Reason)
		}
		return b, nil
	case float64:
		return appendFloat(append(dst, tagFloat), x), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case []byte:
		return append(appendLen(append(dst, tagBytes), len(x), x == nil), x...), nil
	case []dsp.Peak:
		b := appendLen(append(dst, tagPeaks), len(x), x == nil)
		for _, p := range x {
			b = appendFloat(binary.AppendVarint(b, int64(p.Bin)), p.Power)
		}
		return b, nil
	case []complex128:
		b := appendLen(append(dst, tagComplexes), len(x), x == nil)
		for _, c := range x {
			b = appendFloat(appendFloat(b, real(c)), imag(c))
		}
		return b, nil
	}
	return dst, fmt.Errorf("tasklib: encode: unknown value type %T", v)
}

// ValueSize returns the bytes of memory v pins: the backing arrays,
// string data and pointees of every type AppendValue encodes, not the
// interface or slice headers. A value the codec refuses sizes as 0.
// Matrices and numeric vectors cost O(1); nothing is allocated.
func ValueSize(v Value) int {
	switch x := v.(type) {
	case *linalg.Matrix:
		return matrixSize(x)
	case *LUResult:
		if x == nil {
			return 0
		}
		return int(unsafe.Sizeof(*x)) + matrixSize(x.L) + matrixSize(x.U) + 8*cap(x.Perm)
	case []float64:
		return 8 * cap(x)
	case []Track:
		n := cap(x) * int(unsafe.Sizeof(Track{}))
		for i := range x {
			n += len(x[i].Class)
		}
		return n
	case []Threat:
		n := cap(x) * int(unsafe.Sizeof(Threat{}))
		for i := range x {
			n += len(x[i].Reason)
		}
		return n
	case float64:
		return 8
	case string:
		return len(x)
	case []byte:
		return cap(x)
	case []dsp.Peak:
		return cap(x) * int(unsafe.Sizeof(dsp.Peak{}))
	case []complex128:
		return 16 * cap(x)
	}
	return 0
}

func matrixSize(m *linalg.Matrix) int {
	if m == nil {
		return 0
	}
	return int(unsafe.Sizeof(*m)) + 8*cap(m.Data)
}

func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))+1), s...)
}

func appendFloats(b []byte, fs []float64) []byte {
	b = appendLen(b, len(fs), fs == nil)
	n := len(b)
	if need := n + 8*len(fs); need <= cap(b) {
		b = b[:need]
	} else {
		b = append(b, make([]byte, 8*len(fs))...)
	}
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[n+8*i:], math.Float64bits(f))
	}
	return b
}

func appendMatrix(b []byte, m *linalg.Matrix) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = binary.AppendVarint(binary.AppendVarint(append(b, 1), int64(m.Rows)), int64(m.Cols))
	return appendFloats(b, m.Data)
}

var errMalformed = errors.New("malformed or truncated value")

// The fewest wire bytes a Track and a Threat take besides their string:
// one-byte varints, the floats and the string's length byte. The strings
// of a list's n elements fit in the bytes that follow its length less n
// times these, which sizes the one block they share: the list pins
// little more than its strings, and length has already checked that n
// elements fit.
const (
	trackWireMin  = 1 + 4*8 + 1 + 8
	threatWireMin = 1 + 8 + 1
)

// DecodeValue reverses EncodeValue. The result shares no memory with
// data. Malformed input — an unknown tag, a body that ends early, a
// length that claims more elements than the remaining bytes could hold,
// bytes left over — is an error, and nothing is allocated on the say-so
// of a length field alone.
func DecodeValue(data []byte) (Value, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("tasklib: decode: %w", errMalformed)
	}
	d := decoder{b: data[1:]}
	var v Value
	switch data[0] {
	case tagMatrix:
		v = d.matrix()
	case tagLUResult:
		var lu *LUResult
		if d.present() {
			lu = &LUResult{L: d.matrix(), U: d.matrix()}
			if n, isNil := d.length(1); !isNil {
				lu.Perm = make([]int, n)
				for i := range lu.Perm {
					lu.Perm[i] = d.int()
				}
			}
			lu.Swaps = d.int()
		}
		v = lu
	case tagFloats:
		v = d.floats()
	case tagTracks:
		var ts []Track
		if n, isNil := d.length(trackWireMin); !isNil {
			ts = make([]Track, n)
			block := make([]byte, 0, len(d.b)-n*trackWireMin)
			for i := range ts {
				ts[i] = Track{ID: d.int(), X: d.float(), Y: d.float(), VX: d.float(), VY: d.float(),
					Class: d.stringIn(&block), Strength: d.float()}
			}
		}
		v = ts
	case tagThreats:
		var ts []Threat
		if n, isNil := d.length(threatWireMin); !isNil {
			ts = make([]Threat, n)
			block := make([]byte, 0, len(d.b)-n*threatWireMin)
			for i := range ts {
				ts[i] = Threat{TrackID: d.int(), Score: d.float(), Reason: d.stringIn(&block)}
			}
		}
		v = ts
	case tagFloat:
		v = d.float()
	case tagString:
		block := make([]byte, 0, len(d.b))
		v = d.stringIn(&block)
	case tagBytes:
		var bs []byte
		if n, isNil := d.length(1); !isNil {
			bs = append(make([]byte, 0, n), d.b[:n]...)
			d.b = d.b[n:]
		}
		v = bs
	case tagPeaks:
		var ps []dsp.Peak
		if n, isNil := d.length(9); !isNil {
			ps = make([]dsp.Peak, n)
			for i := range ps {
				ps[i] = dsp.Peak{Bin: d.int(), Power: d.float()}
			}
		}
		v = ps
	case tagComplexes:
		var cs []complex128
		if n, isNil := d.length(16); !isNil {
			cs = make([]complex128, n)
			for i := range cs {
				cs[i] = complex(d.float(), d.float())
			}
		}
		v = cs
	default:
		return nil, fmt.Errorf("tasklib: decode: unknown type tag %d", data[0])
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("tasklib: decode: %w", d.err)
	}
	return v, nil
}

// decoder is a cursor over a value body with a sticky error: after the
// first failure every read returns a zero value, so the per-type code
// above checks once, at the end. Loops stay bounded by the input
// because length validates its count against the bytes that remain.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	u, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errMalformed)
		return 0
	}
	d.b = d.b[n:]
	return u
}

func (d *decoder) int() int {
	i, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errMalformed)
		return 0
	}
	d.b = d.b[n:]
	return int(i)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail(errMalformed)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

func (d *decoder) present() bool {
	if len(d.b) < 1 || d.b[0] > 1 {
		d.fail(errMalformed)
		return false
	}
	p := d.b[0] == 1
	d.b = d.b[1:]
	return p
}

// length reads a slice or string length and checks that n elements of
// at least elemMin wire bytes each fit in what remains.
func (d *decoder) length(elemMin int) (n int, isNil bool) {
	u := d.uvarint()
	if u == 0 {
		return 0, true
	}
	if u-1 > uint64(len(d.b)/elemMin) {
		d.fail(errMalformed)
		return 0, false
	}
	return int(u - 1), false
}

// stringIn reads a string into block and returns it as a substring of
// the block. The block never grows and bytes appended to it are never
// rewritten, so every string handed out stays intact and none shares
// memory with the input.
func (d *decoder) stringIn(block *[]byte) string {
	n, isNil := d.length(1)
	if isNil || n > cap(*block)-len(*block) {
		d.fail(errMalformed) // strings are never nil, nor longer than their body
		return ""
	}
	if n == 0 {
		return ""
	}
	start := len(*block)
	*block = append(*block, d.b[:n]...)
	d.b = d.b[n:]
	return unsafe.String(&(*block)[start], n)
}

func (d *decoder) floats() []float64 {
	n, isNil := d.length(8)
	if isNil {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return fs
}

func (d *decoder) matrix() *linalg.Matrix {
	if !d.present() {
		return nil
	}
	return &linalg.Matrix{Rows: d.int(), Cols: d.int(), Data: d.floats()}
}
