package linalg

import (
	"math/rand"
	"sync"
)

// rngPool recycles seeded generators: a source is ~4.9 KB, and reseeding
// one gives the same sequence as rand.New(rand.NewSource(seed)).
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// SeededRand returns a pooled generator reseeded with seed: it yields
// what rand.New(rand.NewSource(seed)) would. Hand it back with PutRand.
func SeededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// PutRand returns a generator from SeededRand to the pool.
func PutRand(rng *rand.Rand) { rngPool.Put(rng) }

// RandomMatrix returns a rows x cols matrix with entries uniform in
// [-1, 1), generated from the given seed so tests and benchmarks are
// reproducible.
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	rng := SeededRand(seed)
	defer PutRand(rng)
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomDiagonallyDominant returns an n x n matrix that is strictly
// diagonally dominant (hence nonsingular and LU-stable), suitable for
// exercising the Linear Equation Solver pipeline.
func RandomDiagonallyDominant(n int, seed int64) *Matrix {
	rng := SeededRand(seed)
	defer PutRand(rng)
	m := New(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			if v < 0 {
				rowSum -= v
			} else {
				rowSum += v
			}
		}
		m.Set(i, i, rowSum+1+rng.Float64())
	}
	return m
}

// RandomVector returns an n-vector with entries uniform in [-1, 1).
func RandomVector(n int, seed int64) []float64 {
	rng := SeededRand(seed)
	defer PutRand(rng)
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}
