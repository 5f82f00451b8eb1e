package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul returns a*b using the straightforward triple loop with an
// ikj ordering that keeps the inner loop streaming over contiguous rows.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MatMul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, b.Cols)
	mulRange(a, b, c, 0, a.Rows)
	return c, nil
}

// mulRange computes rows [lo,hi) of c = a*b.
func mulRange(a, b, c *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		crow := c.Data[i*p : (i+1)*p]
		arow := a.Data[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j := range brow {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// MatMulParallel returns a*b computed by nWorkers goroutines splitting
// the rows of a. nWorkers <= 0 selects GOMAXPROCS. This is the "parallel
// computation mode" implementation used when an AFG task requests more
// than one node.
func MatMulParallel(a, b *Matrix, nWorkers int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MatMulParallel dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if nWorkers > a.Rows {
		nWorkers = a.Rows
	}
	c := New(a.Rows, b.Cols)
	var wg sync.WaitGroup
	rowsPer := (a.Rows + nWorkers - 1) / nWorkers
	for w := 0; w < nWorkers; w++ {
		lo := w * rowsPer
		hi := min(lo+rowsPer, a.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(a, b, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
