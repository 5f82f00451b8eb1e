package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecomposeReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		a := RandomDiagonallyDominant(n, int64(n))
		lu, err := Decompose(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		pa := lu.PermuteRows(a)
		prod, err := MatMul(lu.L, lu.U)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(pa, prod); d > 1e-9 {
			t.Fatalf("n=%d: ||PA - LU|| = %g", n, d)
		}
	}
}

func TestDecomposeShapes(t *testing.T) {
	if _, err := Decompose(New(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestDecomposeSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}}) // rank 1
	if _, err := Decompose(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := Decompose(z); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: got %v, want ErrSingular", err)
	}
}

func TestLUStructure(t *testing.T) {
	a := RandomDiagonallyDominant(12, 7)
	lu, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if lu.L.At(i, i) != 1 {
			t.Fatalf("L diagonal [%d] = %g, want 1", i, lu.L.At(i, i))
		}
		for j := i + 1; j < 12; j++ {
			if lu.L.At(i, j) != 0 {
				t.Fatalf("L[%d][%d] = %g above diagonal", i, j, lu.L.At(i, j))
			}
			if lu.U.At(j, i) != 0 {
				t.Fatalf("U[%d][%d] = %g below diagonal", j, i, lu.U.At(j, i))
			}
		}
	}
	// Perm must be a permutation of 0..n-1.
	seen := make(map[int]bool)
	for _, p := range lu.Perm {
		if p < 0 || p >= 12 || seen[p] {
			t.Fatalf("Perm not a permutation: %v", lu.Perm)
		}
		seen[p] = true
	}
}

func TestForwardBackSub(t *testing.T) {
	l, _ := FromRows([][]float64{{1, 0}, {0.5, 1}})
	y, err := ForwardSub(l, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-2) > 1e-12 || math.Abs(y[1]-2) > 1e-12 {
		t.Fatalf("ForwardSub wrong: %v", y)
	}
	u, _ := FromRows([][]float64{{2, 1}, {0, 4}})
	x, err := BackSub(u, []float64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[1]-2) > 1e-12 || math.Abs(x[0]-1) > 1e-12 {
		t.Fatalf("BackSub wrong: %v", x)
	}
	if _, err := ForwardSub(l, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := BackSub(u, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := BackSub(New(2, 2), []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero U: got %v", err)
	}
}

func TestSolveAgainstResidual(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		a := RandomDiagonallyDominant(n, int64(100+n))
		b := RandomVector(n, int64(200+n))
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		if r > 1e-8 {
			t.Fatalf("n=%d: residual %g too large", n, r)
		}
	}
	if _, err := Solve(New(2, 2), []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMatVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := MatVec(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MatVec wrong: %v", y)
	}
	if _, err := MatVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

// Property: for random diagonally-dominant systems, Solve produces a
// solution whose residual is tiny (LU with partial pivoting is stable on
// this class).
func TestSolveProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw)%24 + 1
		a := RandomDiagonallyDominant(n, seed)
		b := RandomVector(n, seed^0x5eed)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r, err := Residual(a, x, b)
		return err == nil && r < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// Property: PA == LU for every decomposable random matrix.
func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw)%20 + 1
		a := RandomDiagonallyDominant(n, seed)
		lu, err := Decompose(a)
		if err != nil {
			return false
		}
		prod, err := MatMul(lu.L, lu.U)
		if err != nil {
			return false
		}
		return MaxAbsDiff(lu.PermuteRows(a), prod) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}
