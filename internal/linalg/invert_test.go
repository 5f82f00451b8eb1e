package linalg

import (
	"math"
	"strings"
	"testing"
)

// columnLoopInverse is the reference InvertLU must match bit for bit:
// one permuted unit vector, one forward solve from the top and one back
// solve per column, each freshly allocated.
func columnLoopInverse(lu *LU) *Matrix {
	n := lu.U.Rows
	inv := New(n, n)
	for col := 0; col < n; col++ {
		pb := make([]float64, n)
		for i, src := range lu.Perm {
			if src == col {
				pb[i] = 1
			}
		}
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := pb[i]
			for j := 0; j < i; j++ {
				s -= lu.L.At(i, j) * y[j]
			}
			y[i] = s / lu.L.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for j := i + 1; j < n; j++ {
				s -= lu.U.At(i, j) * inv.At(j, col)
			}
			inv.Set(i, col, s/lu.U.At(i, i))
		}
	}
	return inv
}

func TestInvertLUMatchesColumnLoop(t *testing.T) {
	swaps := 0
	for _, n := range []int{1, 2, 7, 33, 160} {
		for seed := int64(1); seed <= 3; seed++ {
			for kind, a := range map[string]*Matrix{
				"general":  RandomMatrix(n, n, seed),
				"dominant": RandomDiagonallyDominant(n, seed),
			} {
				lu, err := Decompose(a)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", kind, n, seed, err)
				}
				swaps += lu.Swaps
				got, err := InvertLU(lu.L, lu.U, lu.Perm)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", kind, n, seed, err)
				}
				want := columnLoopInverse(lu)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s n=%d seed=%d: inv[%d] = %v, want %v", kind, n, seed, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no input pivoted: the permuted start row went untested")
	}
}

func TestInvertLURejectsMalformedFactors(t *testing.T) {
	lu, err := Decompose(RandomMatrix(3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	short := &Matrix{Rows: 3, Cols: 3, Data: make([]float64, 8)}
	for _, tc := range []struct {
		name string
		l, u *Matrix
		perm []int
		want string
	}{
		{"nil L", nil, lu.U, lu.Perm, "not 3x3"},
		{"nil U", lu.L, nil, lu.Perm, "not 3x3"},
		{"no perm", lu.L, lu.U, nil, "not 0x0"},
		{"short perm", lu.L, lu.U, []int{0, 1}, "not 2x2"},
		{"U not square", lu.L, New(3, 2), lu.Perm, "not 3x3"},
		{"U data short", lu.L, short, lu.Perm, "not 3x3"},
		{"perm out of range", lu.L, lu.U, []int{0, 3, 1}, "not a permutation"},
		{"perm negative", lu.L, lu.U, []int{0, -1, 1}, "not a permutation"},
		{"perm duplicate", lu.L, lu.U, []int{2, 0, 2}, "not a permutation"},
	} {
		if _, err := InvertLU(tc.l, tc.u, tc.perm); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	a := RandomDiagonallyDominant(160, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decompose(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvertLU(b *testing.B) {
	lu, err := Decompose(RandomDiagonallyDominant(160, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := InvertLU(lu.L, lu.U, lu.Perm); err != nil {
			b.Fatal(err)
		}
	}
}
