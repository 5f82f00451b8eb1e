package predict

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vdce/internal/repository"
)

func task(ops float64) repository.TaskParams {
	return repository.TaskParams{Name: "t", ComputationOps: ops}
}

func upHost(speed, load float64) repository.HostView {
	return repository.HostView{
		HostName: "h", SpeedFactor: speed, CPULoad: load,
		Status: repository.HostUp, TotalMem: 1 << 30, AvailMem: 1 << 30,
	}
}

func TestPredictIdleBaseProcessor(t *testing.T) {
	p := Default()
	// 100e6 ops on a 100e6 ops/sec idle base host = 1 second.
	d, err := p.Predict(task(100e6), upHost(1, 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Fatalf("Predict = %v, want 1s", d)
	}
}

func TestPredictScalesWithSpeedAndLoad(t *testing.T) {
	p := Default()
	fast, _ := p.Predict(task(100e6), upHost(2, 0), 1, nil)
	slow, _ := p.Predict(task(100e6), upHost(1, 0), 1, nil)
	if fast*2 != slow {
		t.Fatalf("speed 2x should halve time: fast=%v slow=%v", fast, slow)
	}
	loaded, _ := p.Predict(task(100e6), upHost(1, 0.5), 1, nil)
	if loaded != 2*slow {
		t.Fatalf("load 0.5 should double time: %v vs %v", loaded, slow)
	}
}

func TestPredictErrors(t *testing.T) {
	p := Default()
	down := upHost(1, 0)
	down.Status = repository.HostDown
	if _, err := p.Predict(task(1), down, 1, nil); !errors.Is(err, ErrHostDown) {
		t.Fatalf("down host: %v", err)
	}
	if _, err := p.Predict(task(1), upHost(1, 1.0), 1, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated: %v", err)
	}
	if _, err := p.Predict(task(-1), upHost(1, 0), 1, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative ops: %v", err)
	}
	var zero Predictor
	if _, err := zero.Predict(task(1), upHost(1, 0), 1, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero predictor: %v", err)
	}
}

func TestPredictParallelSpeedup(t *testing.T) {
	p := Default()
	p.IntraNodeBytesPerSec = 0 // isolate Amdahl behaviour
	par := task(100e6)
	par.Parallelizable = true
	par.SerialFraction = 0.1
	seq, err := p.Predict(par, upHost(1, 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	four, err := p.Predict(par, upHost(1, 0), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if four >= seq {
		t.Fatalf("4 nodes (%v) not faster than 1 (%v)", four, seq)
	}
	// Amdahl bound: speedup <= 1/serialFraction = 10x.
	if seq/four > 10 {
		t.Fatalf("speedup %v exceeds Amdahl bound", seq/four)
	}
	// Non-parallelizable tasks ignore the node count.
	notPar := task(100e6)
	d1, _ := p.Predict(notPar, upHost(1, 0), 1, nil)
	d4, _ := p.Predict(notPar, upHost(1, 0), 4, nil)
	if d1 != d4 {
		t.Fatalf("node count changed a sequential task: %v vs %v", d1, d4)
	}
}

func TestPredictParallelCommOverhead(t *testing.T) {
	p := Default()
	par := task(100e6)
	par.Parallelizable = true
	par.CommunicationBytes = 50 << 20
	with, err := p.Predict(par, upHost(1, 0), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.IntraNodeBytesPerSec = 0
	without, err := p.Predict(par, upHost(1, 0), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if with <= without {
		t.Fatalf("comm overhead missing: with=%v without=%v", with, without)
	}
}

func TestPredictMemoryPenalty(t *testing.T) {
	p := Default()
	tk := task(100e6)
	tk.RequiredMemBytes = 1 << 30
	small := upHost(1, 0)
	small.AvailMem = 1 << 29 // half of required
	penalized, err := p.Predict(tk, small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := p.Predict(tk, upHost(1, 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if penalized <= roomy {
		t.Fatalf("memory penalty missing: %v <= %v", penalized, roomy)
	}
	// deficitRatio = 0.5 -> multiplier 1 + 4*0.5 = 3.
	if penalized != 3*roomy {
		t.Fatalf("penalty = %v, want %v", penalized, 3*roomy)
	}
}

func TestPredictBlendsMeasurement(t *testing.T) {
	p := Default()
	m := 10 * time.Second
	got, err := p.Predict(task(100e6), upHost(1, 0), 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	// model = 1s, measured = 10s, blend 0.6 -> 6.4s.
	want := time.Duration(0.6*float64(10*time.Second) + 0.4*float64(time.Second))
	if got != want {
		t.Fatalf("blended = %v, want %v", got, want)
	}
	// Blend of 0 ignores the measurement.
	p.MeasuredBlend = 0
	got, err = p.Predict(task(100e6), upHost(1, 0), 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	if got != time.Second {
		t.Fatalf("blend 0 = %v, want 1s", got)
	}
}

// Property: prediction is monotonically non-decreasing in load and in
// computation size — the two directions the host-selection algorithm
// relies on to rank resources.
func TestPredictMonotonicProperty(t *testing.T) {
	p := Default()
	f := func(opsRaw uint32, loadRaw, bumpRaw uint8) bool {
		ops := float64(opsRaw%1e6) + 1
		load := float64(loadRaw%90) / 100
		bump := float64(bumpRaw%9+1) / 100
		d1, err1 := p.Predict(task(ops), upHost(1, load), 1, nil)
		d2, err2 := p.Predict(task(ops), upHost(1, load+bump), 1, nil)
		d3, err3 := p.Predict(task(ops*2), upHost(1, load), 1, nil)
		return err1 == nil && err2 == nil && err3 == nil && d2 >= d1 && d3 >= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// TestOracle: the oracle binds the default constants to one
// repository, and its level cost is the catalog's — a measurement moves
// predictions, never a task's level.
func TestOracle(t *testing.T) {
	repo := repository.New("s1")
	if err := repo.TaskPerf.RegisterTask(repository.TaskParams{
		Name: "lu", ComputationOps: 200e6, BaseTime: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	o := NewOracle(repo)
	if o.P != Default() || o.Repo != repo {
		t.Fatalf("oracle = %+v, want the default constants over repo", o)
	}
	if err := repo.TaskPerf.RecordExecution("lu", "h1", 5*time.Second, time.Now()); err != nil {
		t.Fatal(err)
	}
	if d, err := o.BaseTimeFor("lu"); err != nil || d != 2*time.Second {
		t.Fatalf("level cost after a measurement = %v (%v), want the stored 2s", d, err)
	}
}

func TestBaseTimeFor(t *testing.T) {
	repo := repository.New("s1")
	if err := repo.TaskPerf.RegisterTask(repository.TaskParams{Name: "a", BaseTime: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := repo.TaskPerf.RegisterTask(repository.TaskParams{Name: "b", ComputationOps: 100e6}); err != nil {
		t.Fatal(err)
	}
	o := NewOracle(repo)
	if d, err := o.BaseTimeFor("a"); err != nil || d != 3*time.Second {
		t.Fatalf("stored base time: %v %v", d, err)
	}
	if d, err := o.BaseTimeFor("b"); err != nil || d != time.Second {
		t.Fatalf("derived base time: %v %v", d, err)
	}
	if _, err := o.BaseTimeFor("zz"); err == nil {
		t.Fatal("unknown task accepted")
	}
}
