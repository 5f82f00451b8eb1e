package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// LU holds the result of an LU decomposition with partial pivoting:
// P*A = L*U where L is unit lower triangular, U is upper triangular, and
// P is the row permutation encoded by Perm (row i of P*A is row Perm[i]
// of A). Swaps counts row exchanges (used for the determinant sign).
type LU struct {
	L, U  *Matrix
	Perm  []int
	Swaps int
}

// ErrSingular is returned when a pivot (or the whole matrix) is singular
// to working precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Decompose computes the LU decomposition of square matrix a with
// partial (row) pivoting. a is not modified.
func Decompose(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Decompose needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	u := a.Clone()
	l := Identity(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	swaps := 0
	for k := 0; k < n; k++ {
		// A stopped job's check belongs here: once per pivot column.
		// Find pivot: largest |u[i][k]| for i >= k.
		p, best := k, math.Abs(u.Data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(u.Data[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != k {
			u.swapRows(p, k, n)
			l.swapRows(p, k, k) // the multipliers already computed (columns < k)
			perm[p], perm[k] = perm[k], perm[p]
			swaps++
		}
		uk := u.Data[k*n+k : (k+1)*n]
		for i := k + 1; i < n; i++ {
			ui := u.Data[i*n+k:][:len(uk)]
			m := ui[0] / uk[0]
			l.Data[i*n+k], ui[0] = m, 0
			for j := 1; j < len(uk); j++ {
				ui[j] -= m * uk[j]
			}
		}
	}
	return &LU{L: l, U: u, Perm: perm, Swaps: swaps}, nil
}

// PermuteRows returns P*m for the decomposition's permutation: output row
// i is input row Perm[i].
func (lu *LU) PermuteRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, src := range lu.Perm {
		copy(out.Data[i*m.Cols:(i+1)*m.Cols], m.Data[src*m.Cols:(src+1)*m.Cols])
	}
	return out
}

// CheckLU reports whether L and U are n x n for some n >= 1 and perm is
// a permutation of 0..n-1. Its O(n^2) scan costs no more than reading L.
func CheckLU(l, u *Matrix, perm []int) error {
	n := len(perm)
	for _, m := range [2]*Matrix{l, u} {
		if m == nil || m.Rows != n || m.Cols != n || len(m.Data) != n*n || n == 0 {
			return fmt.Errorf("linalg: LU factors are not %dx%d for a %d-entry permutation", n, n, n)
		}
	}
	for i, p := range perm {
		if p < 0 || p >= n || slices.Contains(perm[:i], p) {
			return fmt.Errorf("linalg: LU permutation is not a permutation of 0..%d", n-1)
		}
	}
	return nil
}

// InvertLU returns inv(A) from P*A = L*U, solving L*U*x = P*e for each
// unit vector e in one scratch column. Column perm[r]'s P*e is zero above
// row r, so its forward solve starts there: for finite factors the rows
// skipped would only subtract zero products from zero.
func InvertLU(l, u *Matrix, perm []int) (*Matrix, error) {
	if err := CheckLU(l, u, perm); err != nil {
		return nil, err
	}
	n := len(perm)
	inv := New(n, n)
	x := make([]float64, n)
	for r, col := range perm {
		// A stopped job's check belongs here: once per column.
		clear(x)
		x[r] = 1
		if _, err := forwardSub(l, x, r); err != nil {
			return nil, err
		}
		if _, err := backSub(u, x); err != nil {
			return nil, err
		}
		for i, v := range x {
			inv.Data[i*n+col] = v
		}
	}
	return inv, nil
}

// forwardSub solves L*y = b in place (x holds b on entry, y on return)
// for lower-triangular L, given that b is zero above row from.
func forwardSub(l *Matrix, x []float64, from int) ([]float64, error) {
	n := len(x)
	for i := from; i < n; i++ {
		row := l.Data[i*n:][:n]
		s := x[i]
		for j := from; j < i; j++ {
			s -= row[j] * x[j]
		}
		// Divide even by a unit diagonal: SolveSPD passes a general L.
		if row[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// backSub solves U*x = y in place (x holds y on entry) for upper-triangular U.
func backSub(u *Matrix, x []float64) ([]float64, error) {
	n := len(x)
	for i := n - 1; i >= 0; i-- {
		row := u.Data[i*n:][:n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if math.Abs(row[i]) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// ForwardSub solves L*y = b for unit lower-triangular L.
func ForwardSub(l *Matrix, b []float64) ([]float64, error) {
	if l.Rows != len(b) || l.Cols != len(b) {
		return nil, fmt.Errorf("linalg: ForwardSub shape mismatch L=%dx%d len(b)=%d", l.Rows, l.Cols, len(b))
	}
	return forwardSub(l, append([]float64(nil), b...), 0)
}

// BackSub solves U*x = y for upper-triangular U.
func BackSub(u *Matrix, y []float64) ([]float64, error) {
	if u.Rows != len(y) || u.Cols != len(y) {
		return nil, fmt.Errorf("linalg: BackSub shape mismatch U=%dx%d len(y)=%d", u.Rows, u.Cols, len(y))
	}
	return backSub(u, append([]float64(nil), y...))
}

// Solve solves A*x = b using LU decomposition with partial pivoting.
// This is exactly the pipeline of the paper's Linear Equation Solver
// application: LU decomposition, forward substitution, back substitution.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: Solve shape mismatch A=%dx%d len(b)=%d", a.Rows, a.Cols, len(b))
	}
	lu, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	pb := make([]float64, len(b))
	for i, src := range lu.Perm {
		pb[i] = b[src]
	}
	y, err := ForwardSub(lu.L, pb)
	if err != nil {
		return nil, err
	}
	return BackSub(lu.U, y)
}

// MatVec returns A*x.
func MatVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("linalg: MatVec shape mismatch A=%dx%d len(x)=%d", a.Rows, a.Cols, len(x))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Residual returns ||A*x - b||_inf, a convenience for solver validation.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := MatVec(a, x)
	if err != nil {
		return 0, err
	}
	if len(ax) != len(b) {
		return 0, fmt.Errorf("linalg: Residual length mismatch %d vs %d", len(ax), len(b))
	}
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max, nil
}
