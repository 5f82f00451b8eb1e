package linalg

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSeededGeneratorsMatchFreshSources: the generators draw from pooled,
// reseeded sources, and every one returns what it returned with a fresh
// rand.New(rand.NewSource(seed)) per call — whatever seed the pooled
// source last had. A fresh source is one ~4.9 KB allocation.
func TestSeededGeneratorsMatchFreshSources(t *testing.T) {
	uniform := func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	dominant := func(rng *rand.Rand, n int) []float64 {
		m := make([]float64, n*n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := 2*rng.Float64() - 1
				m[i*n+j] = v
				if v < 0 {
					rowSum -= v
				} else {
					rowSum += v
				}
			}
			m[i*n+i] = rowSum + 1 + rng.Float64()
		}
		return m
	}
	for _, seed := range []int64{1, 2, 7, -3, 1 << 40, 1} {
		fresh := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
		if got, want := RandomVector(17, seed), uniform(fresh(), 17); !slices.Equal(got, want) {
			t.Errorf("RandomVector(17, %d) differs from a fresh source's", seed)
		}
		if got, want := RandomMatrix(5, 7, seed), uniform(fresh(), 35); !slices.Equal(got.Data, want) {
			t.Errorf("RandomMatrix(5, 7, %d) differs from a fresh source's", seed)
		}
		if got, want := RandomDiagonallyDominant(6, seed), dominant(fresh(), 6); !slices.Equal(got.Data, want) {
			t.Errorf("RandomDiagonallyDominant(6, %d) differs from a fresh source's", seed)
		}
		rng, ref := SeededRand(seed), fresh()
		for i := 0; i < 50; i++ {
			if a, b := rng.Int63(), ref.Int63(); a != b {
				t.Fatalf("SeededRand(%d) draw %d = %d, a fresh source's %d", seed, i, a, b)
			}
		}
		if a, b := rng.NormFloat64(), ref.NormFloat64(); a != b {
			t.Fatalf("SeededRand(%d) NormFloat64 = %v, a fresh source's %v", seed, a, b)
		}
		PutRand(rng)
	}
	// The vector only: a fresh source would add one a call. (The race
	// detector drops a quarter of pooled sources, which stays below one a
	// call in AllocsPerRun's truncated mean.)
	if n := testing.AllocsPerRun(100, func() { RandomVector(8, 5) }); n > 1 {
		t.Errorf("RandomVector allocates %v per call, want the vector only", n)
	}
}
