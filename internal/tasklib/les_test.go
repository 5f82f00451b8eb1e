package tasklib

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"vdce/internal/afg"
	"vdce/internal/linalg"
)

// lesDigest runs the Linear Equation Solver in-process and hashes every
// task output, wire-encoded, in topological order.
func lesDigest(t *testing.T, n int, seed int64, kind string) string {
	t.Helper()
	g, err := BuildLinearEquationSolver(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if task.Name == "Matrix_Generate" && kind != "" {
			task.Props.Args["kind"] = kind
		}
	}
	return outputDigest(t, g)
}

// outputDigest runs g in-process and hashes every task output,
// wire-encoded, in topological order.
func outputDigest(t *testing.T, g *afg.Graph) string {
	t.Helper()
	results, err := RunLocal(g, Default())
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, id := range order {
		for _, v := range results[id] {
			b, err := EncodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLESOutputDigest pins every output of the LES bit for bit: the
// digests were taken with the kernels reading and writing each element
// through At/Set, before they walked row slices. A "general" matrix makes
// LU pivot; the default, diagonally dominant one does not.
func TestLESOutputDigest(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		kind string
		want string
	}{
		{64, 1, "", "b664a11e2dcdd164cdaf4892d23d03517b220e56f27328759c5ef0492af22f38"},
		{64, 2, "", "10cffc3fe5082793359d02d3a76194ea409a27c53c2aa87a88bf6efc3ae7d50b"},
		{64, 3, "", "e2d25605e3f1d822a1e76eb4430081c2ad6b410cabcbfb2dfef07ed43c9eaf19"},
		{160, 1, "", "bc14c473d7861f1720464df2981bba1ee3dd692e04fa9bad4adbcfd9d6b6a159"},
		{160, 2, "", "b9b51149290784830350f8d140961a65f14a9f9f0c1c71356984bd4711a4c9a4"},
		{160, 3, "", "460c52f0bbf5618e3aee3221cacbba762d76c105fca21f5371ba4bec387d01e8"},
		{64, 1, "general", "7fd027a74b6203e85f5e6357c6c99966d19180c1f0b6458a4668ee6588ff4ec6"},
		{64, 2, "general", "9aa535ef2233aa77182dc00bc282b7597c3c0d5f0cee62c9cd5e39e21610c600"},
		{64, 3, "general", "4dd1c0e0115de6b06f8c7e6dec460a12a474a2ca17adb5e3b827302bec1e5962"},
		{160, 1, "general", "3e811112cd0429157516d7c39c4d82b43c44d76e260078322cf3c3b00304a6b8"},
		{160, 2, "general", "78e8187ddfa7947823baf724d90b5fd17025e0d1ee1ce113d14405292113947a"},
		{160, 3, "general", "3b7033af8e2b7d662fec586f185887fcbcb1b8249e61f1aef3cb6ae5d6b2eef9"},
	} {
		if got := lesDigest(t, tc.n, tc.seed, tc.kind); got != tc.want {
			t.Errorf("LES-%d seed %d %q: digest %s, want %s", tc.n, tc.seed, tc.kind, got, tc.want)
		}
	}
}

// TestLESKernelAllocBudget pins what the LES kernels allocate at n=160.
// Solving one unit system per column with three fresh vectors each cost
// Matrix_Inversion 484 allocations and RunLocal 527; inverting in one
// scratch column costs the result, the column and the output slice.
func TestLESKernelAllocBudget(t *testing.T) {
	r := Default()
	task := func(name string, in Value) func() {
		spec, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := &Context{In: []Value{in}, Nodes: 2}
		return func() {
			if _, err := spec.Fn(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := linalg.RandomDiagonallyDominant(160, 1)
	lu := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})[0]
	g, err := BuildLinearEquationSolver(160, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"Matrix_Inversion", 4, task("Matrix_Inversion", lu)},
		{"LU_Decomposition", 8, task("LU_Decomposition", a)},
		{"RunLocal LES-160", 64, func() {
			if _, err := RunLocal(g, r); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(20, tc.fn)
		t.Logf("%s: %.0f allocs (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.0f per call, over its budget of %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestLUConsumersRejectMalformedInput: a decoded LU the codec accepts
// but no decomposition could produce is an error from each of its three
// consumers, never a panic on the compute goroutine.
func TestLUConsumersRejectMalformedInput(t *testing.T) {
	r := Default()
	good := run(t, r, "LU_Decomposition", &Context{In: []Value{linalg.RandomDiagonallyDominant(3, 1)}})[0].(*LUResult)
	with := func(perm []int, u *linalg.Matrix) *LUResult {
		return &LUResult{L: good.L, U: u, Perm: perm, Swaps: good.Swaps}
	}
	for _, tc := range []struct {
		name string
		lu   Value
		want string
	}{
		{"nil", (*LUResult)(nil), "non-nil *LUResult"},
		{"perm out of range", with([]int{0, 5, 1}, good.U), "not a permutation"},
		{"duplicate perm", with([]int{1, 1, 0}, good.U), "not a permutation"},
		{"shape mismatch", with(good.Perm, linalg.New(2, 3)), "not 3x3"},
	} {
		// Each form crosses the wire intact: the codec does not judge it.
		b, err := EncodeValue(tc.lu)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, task := range []string{"Matrix_Inversion", "Forward_Substitution", "Back_Substitution"} {
			spec, err := r.Get(task)
			if err != nil {
				t.Fatal(err)
			}
			in := []Value{lu, []float64{1, 2, 3}}[:spec.InPorts]
			if _, err := spec.Fn(&Context{In: in}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %s: err = %v, want one containing %q", task, tc.name, err, tc.want)
			}
		}
	}
}

// TestMatrixTasksRejectMalformedInput: a decoded matrix the codec
// accepts but no kernel can index — nil, Data shorter than Rows*Cols, a
// zero dimension — is an error from every task that reads one through
// Context.Matrix, on every matrix port, never a panic. So is a nil, an
// empty or a short vector on every port a task reads through
// Context.Vector.
func TestMatrixTasksRejectMalformedInput(t *testing.T) {
	r := Default()
	a := linalg.RandomDiagonallyDominant(3, 1)
	v := []float64{1, 2, 3}
	// Well-formed inputs per task; the matrix ports are the ones probed.
	tasks := map[string]struct {
		in    []Value
		ports []int
	}{
		"LU_Decomposition":       {[]Value{a}, []int{0}},
		"Cholesky_Decomposition": {[]Value{linalg.RandomSPD(3, 1)}, []int{0}},
		"Matrix_Multiplication":  {[]Value{a, a}, []int{0, 1}},
		"Matrix_Vector_Multiply": {[]Value{a, v}, []int{0}},
		"Matrix_Add":             {[]Value{a, a}, []int{0, 1}},
		"Matrix_Transpose":       {[]Value{a}, []int{0}},
		"Residual_Norm":          {[]Value{a, v, v}, []int{0}},
	}
	luConsumers := []string{"Matrix_Inversion", "Forward_Substitution", "Back_Substitution"}
	for _, name := range r.Names("matrix") {
		spec, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tasks[name]; !ok && spec.InPorts > 0 && !slices.Contains(luConsumers, name) {
			t.Errorf("matrix task %s takes input but is not probed here", name)
		}
	}
	for _, bad := range []struct {
		name string
		m    *linalg.Matrix
	}{
		{"nil", nil},
		{"short Data", &linalg.Matrix{Rows: 3, Cols: 3, Data: []float64{1, 2}}},
		{"zero rows", &linalg.Matrix{Rows: 0, Cols: 3}},
	} {
		b, err := EncodeValue(bad.m)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeValue(b) // the codec does not judge the shape
		if err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		for name, tc := range tasks {
			spec, err := r.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, port := range tc.ports {
				in := slices.Clone(tc.in)
				in[port] = m
				if _, err := spec.Fn(&Context{In: in}); err == nil || !strings.Contains(err.Error(), "not a well-formed matrix") {
					t.Errorf("%s with %s on port %d: err = %v, want a malformed-matrix error", name, bad.name, port, err)
				}
			}
		}
	}
	// Well-formed inputs per task; the vector ports are the ones probed.
	lu := run(t, r, "LU_Decomposition", &Context{In: []Value{a}})[0]
	vectorTasks := map[string]struct {
		in    []Value
		ports []int
	}{
		"Forward_Substitution":   {[]Value{lu, v}, []int{1}},
		"Back_Substitution":      {[]Value{lu, v}, []int{1}},
		"Matrix_Vector_Multiply": {[]Value{a, v}, []int{1}},
		"Residual_Norm":          {[]Value{a, v, v}, []int{1, 2}},
	}
	for name, tc := range vectorTasks {
		run(t, r, name, &Context{In: tc.in})
	}
	for _, bad := range []struct {
		name string
		v    []float64
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"short", []float64{1, 2}},
	} {
		b, err := EncodeValue(bad.v)
		if err != nil {
			t.Fatal(err)
		}
		x, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		for name, tc := range vectorTasks {
			spec, err := r.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, port := range tc.ports {
				in := slices.Clone(tc.in)
				in[port] = x
				if _, err := spec.Fn(&Context{In: in}); err == nil {
					t.Errorf("%s with a %s vector on port %d: no error", name, bad.name, port)
				}
			}
		}
	}
}
