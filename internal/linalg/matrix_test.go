package linalg

import (
	"math"
	"testing"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("wrong entries: %v", m.Data)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged-row error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{6, 8}, {10, 12}})
	if !Equalish(sum, want, 0) {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	if _, err := Add(a, New(3, 3)); err == nil {
		t.Fatal("expected dimension error from Add")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := RandomMatrix(5, 7, 1)
	tt := m.Transpose().Transpose()
	if !Equalish(m, tt, 0) {
		t.Fatal("transpose is not an involution")
	}
	tr := m.Transpose()
	if tr.Rows != 7 || tr.Cols != 5 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(3, 2) != m.At(2, 3) {
		t.Fatal("transpose entry mismatch")
	}
}

func TestRowColClone(t *testing.T) {
	m := RandomMatrix(4, 3, 2)
	cl := m.Clone()
	if !Equalish(m, cl, 0) {
		t.Fatal("Clone differs from the original")
	}
	cl.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEqualishAndMaxAbsDiff(t *testing.T) {
	a := RandomMatrix(3, 3, 3)
	b := a.Clone()
	b.Set(1, 1, b.At(1, 1)+0.5)
	if Equalish(a, b, 0.1) {
		t.Fatal("Equalish missed a 0.5 difference")
	}
	if !Equalish(a, b, 0.6) {
		t.Fatal("Equalish rejected within tolerance")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %g, want 0.5", d)
	}
	if !math.IsInf(MaxAbsDiff(a, New(2, 2)), 1) {
		t.Fatal("MaxAbsDiff on shape mismatch should be +Inf")
	}
}

func TestStringForms(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := New(20, 20)
	if s := big.String(); len(s) == 0 || s[0] != 'M' {
		t.Fatalf("summary String wrong: %q", s)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if n := m.FrobeniusNorm(); math.Abs(n-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %g, want 5", n)
	}
}
