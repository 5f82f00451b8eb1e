package tasklib

import (
	"testing"

	"vdce/internal/linalg"
	"vdce/internal/repository"
)

func TestDefaultCatalog(t *testing.T) {
	r := Default()
	libs := r.Libraries()
	if len(libs) != 4 || libs[0] != "c3i" || libs[1] != "matrix" || libs[2] != "signal" || libs[3] != "util" {
		t.Fatalf("Libraries = %v", libs)
	}
	for _, name := range []string{"LU_Decomposition", "Matrix_Multiplication", "Sensor_Feed", "Pass_Through"} {
		if _, err := r.Get(name); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("unknown task accepted")
	}
	if got := r.Names("matrix"); len(got) < 8 {
		t.Fatalf("matrix library too small: %v", got)
	}
	// Every spec must have positive base time for level computation.
	for _, name := range r.All() {
		s, _ := r.Get(name)
		if s.Params.BaseTime <= 0 {
			t.Errorf("%s has no base time", name)
		}
		if s.Params.Name != name {
			t.Errorf("%s params name mismatch: %s", name, s.Params.Name)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Spec{Name: "", Fn: func(*Context) ([]Value, error) { return nil, nil }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(Spec{Name: "x", Fn: nil, OutPorts: 1}); err == nil {
		t.Fatal("nil fn accepted")
	}
	if err := r.Register(Spec{Name: "x", OutPorts: 0, Fn: func(*Context) ([]Value, error) { return nil, nil }}); err == nil {
		t.Fatal("zero out ports accepted")
	}
	ok := Spec{Name: "x", OutPorts: 1, Fn: func(*Context) ([]Value, error) { return []Value{1.0}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestContextArgHelpers(t *testing.T) {
	c := &Context{Args: map[string]string{"n": "12", "big": "123456789012", "f": "0.25", "bad": "xx"}}
	if v, err := c.IntArg("n", 5); err != nil || v != 12 {
		t.Fatalf("IntArg: %d %v", v, err)
	}
	if v, err := c.IntArg("missing", 5); err != nil || v != 5 {
		t.Fatalf("IntArg default: %d %v", v, err)
	}
	if _, err := c.IntArg("bad", 5); err == nil {
		t.Fatal("bad int accepted")
	}
	if v, err := c.Int64Arg("big", 0); err != nil || v != 123456789012 {
		t.Fatalf("Int64Arg: %d %v", v, err)
	}
	if _, err := c.Int64Arg("bad", 0); err == nil {
		t.Fatal("bad int64 accepted")
	}
	if v, err := c.FloatArg("f", 0); err != nil || v != 0.25 {
		t.Fatalf("FloatArg: %g %v", v, err)
	}
	if _, err := c.FloatArg("bad", 0); err == nil {
		t.Fatal("bad float accepted")
	}
	// Typed input extraction errors.
	c2 := &Context{In: []Value{"str"}}
	if _, err := c2.Matrix(0); err == nil {
		t.Fatal("string accepted as matrix")
	}
	if _, err := c2.Vector(0); err == nil {
		t.Fatal("string accepted as vector")
	}
	if _, err := c2.Matrix(5); err == nil {
		t.Fatal("out-of-range input accepted")
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	vals := []Value{
		linalg.Identity(3),
		[]float64{1, 2, 3},
		[]Track{{ID: 1, X: 2, Class: "hostile"}},
		[]Threat{{TrackID: 1, Score: 9.5, Reason: "r"}},
		3.14,
		"hello",
		&LUResult{L: linalg.Identity(2), U: linalg.Identity(2), Perm: []int{0, 1}},
	}
	for i, v := range vals {
		data, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		back, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		switch want := v.(type) {
		case *linalg.Matrix:
			got, ok := back.(*linalg.Matrix)
			if !ok || !linalg.Equalish(want, got, 0) {
				t.Fatalf("case %d matrix mismatch", i)
			}
		case []float64:
			got, ok := back.([]float64)
			if !ok || len(got) != len(want) {
				t.Fatalf("case %d vector mismatch", i)
			}
		case float64:
			if back.(float64) != want {
				t.Fatalf("case %d float mismatch", i)
			}
		case string:
			if back.(string) != want {
				t.Fatalf("case %d string mismatch", i)
			}
		}
	}
	if _, err := DecodeValue([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestInstallInto(t *testing.T) {
	r := Default()
	repo := repository.New("s1")
	hosts := []string{"h1", "h2"}
	if err := r.InstallInto(repo, hosts); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.TaskPerf.Params("LU_Decomposition"); err != nil {
		t.Fatalf("params not installed: %v", err)
	}
	if !repo.Constraints.HasTask("Matrix_Multiplication", "h2") {
		t.Fatal("task not installed on h2")
	}
}
