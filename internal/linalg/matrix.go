// Package linalg provides the dense linear-algebra kernels that back the
// VDCE matrix-algebra task library: LU decomposition with partial
// pivoting, triangular solves, and sequential and parallel matrix
// multiplication.
//
// The kernels are self-contained (stdlib only) and deterministic: they
// index row slices directly but keep the reference summation order, so
// their results are bit-exact across changes and the task-performance
// database measurements taken by the runtime are reproducible across runs.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix with the given dimensions.
// It panics if either dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: FromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns a+b. Dimensions must match.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("linalg: Add dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c, nil
}

// Equalish reports whether a and b have the same shape and all entries
// within tol of one another.
func Equalish(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b, or +Inf if shapes differ.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var max float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows > 8 || m.Cols > 8 {
		return fmt.Sprintf("Matrix(%dx%d, |·|F=%.4g)", m.Rows, m.Cols, m.FrobeniusNorm())
	}
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// swapRows exchanges the first w entries of rows i and j in place.
func (m *Matrix) swapRows(i, j, w int) {
	ri, rj := m.Data[i*m.Cols:i*m.Cols+w], m.Data[j*m.Cols:j*m.Cols+w]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
