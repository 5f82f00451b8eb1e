package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"vdce/internal/repository"
	"vdce/internal/workload"
)

func TestE1Fidelity(t *testing.T) {
	tbl, err := E1LESBuild(1024)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	// Fig. 1 fidelity markers.
	for _, want := range []string{
		"LU_Decomposition", "Matrix_Multiplication", "<parallel>",
		"Number of Nodes: 2", "SUN Solaris", "vector_X.dat", "matrix_A.dat",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("LES rows = %d", len(tbl.Rows))
	}
}

func TestE2ShapeHolds(t *testing.T) {
	p := DefaultE2()
	p.TaskCounts = []int{40}
	p.CCRs = []float64{1}
	tbl, err := E2Schedulers(p)
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		i := slices.Index(tbl.Header, name)
		if i < 0 {
			t.Fatalf("no %q column in %v", name, tbl.Header)
		}
		return i
	}
	// Shape: the VDCE scheduler beats random and round-robin on average
	// across families, and the ratio columns divide the named columns.
	var vdce, random, rrobin float64
	for _, row := range tbl.Rows {
		v, r, rr := atof(t, row[col("vdce")]), atof(t, row[col("random")]), atof(t, row[col("rrobin")])
		vdce, random, rrobin = vdce+v, random+r, rrobin+rr
		for _, c := range []struct {
			name string
			want float64
		}{{"rand/vdce", r / v}, {"rr/vdce", rr / v}} {
			if got := atof(t, row[col(c.name)]); math.Abs(got-c.want) > 0.011 {
				t.Fatalf("%v: %s = %.2f, want %.2f", row[:3], c.name, got, c.want)
			}
		}
	}
	if vdce >= random {
		t.Fatalf("vdce (%f) not better than random (%f) in aggregate", vdce, random)
	}
	if vdce >= rrobin {
		t.Fatalf("vdce (%f) not better than round-robin (%f) in aggregate", vdce, rrobin)
	}
}

// TestE2PlacementDigest pins what every E2 column places: the sha256
// over the JSON of the 315 allocation tables the full DefaultE2 sweep
// produces, seven policies in E2's column order over its 45 cells.
// Captured while each comparator still ran its own placement loop; the
// loop may change shape, the placements may not.
func TestE2PlacementDigest(t *testing.T) {
	const want = "be3d9da1a09a438d1c5951744582918b3a3e2442532982f7c38e2bc3469d0e92"
	h := sha256.New()
	tables := 0
	err := e2Cells(DefaultE2(), func(fam string, n int, ccr float64, r Round, w *workload.Graph) error {
		for _, pol := range Policies {
			table, err := pol.Schedule(r, w)
			if err != nil {
				return fmt.Errorf("%s %d/%g %s: %w", fam, n, ccr, pol.Name, err)
			}
			data, err := json.Marshal(table)
			if err != nil {
				return err
			}
			h.Write(data)
			tables++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); tables != 315 || got != want {
		t.Fatalf("%d tables, digest %s; want 315 tables, digest %s", tables, got, want)
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE3FreshDataIsExact(t *testing.T) {
	tbl, err := E3HostSelection([]int{0, 16}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With staleness 0 the mean regret must be (near) zero.
	if reg := atof(t, tbl.Rows[0][1]); reg > 1.0 {
		t.Fatalf("fresh-data regret = %g%%", reg)
	}
	// Stale data can only be worse or equal.
	if atof(t, tbl.Rows[1][1]) < atof(t, tbl.Rows[0][1])-1e-9 {
		t.Fatal("stale data beat fresh data")
	}
}

func TestE4LargerKNeverHurts(t *testing.T) {
	tbl, err := E4Locality([]int{1, 7}, 60, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A wider multicast can only expose better (or equal) placements.
	low := atof(t, tbl.Rows[0][1])
	high := atof(t, tbl.Rows[1][1])
	if high > low*1.01 {
		t.Fatalf("k=7 makespan %g worse than k=1 makespan %g", high, low)
	}
}

func TestE5FilteringReducesTraffic(t *testing.T) {
	tbl, err := E5Monitoring([]float64{0, 0.1}, 16, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	all := atof(t, tbl.Rows[0][1])
	filtered := atof(t, tbl.Rows[1][1])
	if filtered >= all/2 {
		t.Fatalf("threshold 0.1 forwarded %g of %g samples (want < half)", filtered, all)
	}
}

// TestE6LatencyBoundedByPeriod checks each E6 row against the model its
// note states: with a suspicion timeout of four echo periods, down comes
// in the fifth round after the last heartbeat, so every latency lies in
// (timeout, timeout + period]; every failure is detected and no healthy
// host is ever suspected.
func TestE6LatencyBoundedByPeriod(t *testing.T) {
	periods := []time.Duration{250 * time.Millisecond, time.Second}
	tbl, err := E6FailureDetect(periods, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, period := range periods {
		row := tbl.Rows[i]
		dur := func(col int) time.Duration {
			t.Helper()
			d, err := time.ParseDuration(row[col])
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		timeout, mean, max := dur(1), dur(2), dur(3)
		if timeout != 4*period {
			t.Fatalf("suspicion timeout %v, want 4 periods of %v", timeout, period)
		}
		if mean <= timeout || max > timeout+period || mean > max {
			t.Fatalf("period %v: mean %v / max %v outside the model's (%v, %v]", period, mean, max, timeout, timeout+period)
		}
		if row[5] != "32/32" {
			t.Fatalf("period %v: detected %s, want all", period, row[5])
		}
		if row[6] != "0" {
			t.Fatalf("period %v: %s false positives", period, row[6])
		}
	}
}

func TestE7ReschedulingHelps(t *testing.T) {
	tbl, err := E7Reschedule(30, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	with, err := time.ParseDuration(tbl.Rows[0][1])
	if err != nil {
		t.Fatal(err)
	}
	without, err := time.ParseDuration(tbl.Rows[1][1])
	if err != nil {
		t.Fatal(err)
	}
	if with >= without {
		t.Fatalf("rescheduling (%v) did not beat staying put (%v)", with, without)
	}
	if tbl.Rows[0][2] == "0" {
		t.Fatal("no reschedules recorded")
	}
}

// TestE8CalibrationConverges holds the calibration loop to injected
// measurements, not to the wall clock: each host's true time for the
// probe task is the nominal 10 ms divided by its speed, and every round
// records exactly that. The static model's error (round 0) must fall
// once a measurement is blended in, and never rise after.
func TestE8CalibrationConverges(t *testing.T) {
	tb, local, g, id, err := e8Probe()
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	at := time.Unix(50000, 0)
	var errs []float64
	for round := 0; round < 4; round++ {
		var sum float64
		for _, h := range site.Hosts {
			truth := time.Duration(float64(10*time.Millisecond) / h.Speed)
			pred, err := local.PredictSet(g.Task(id), []string{h.Name})
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(float64(pred-truth)) / float64(truth)
			if _, err := site.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: "Spin", Host: h.Name, Elapsed: truth, At: at.Add(time.Duration(round) * time.Second)}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		errs = append(errs, sum/float64(len(site.Hosts)))
	}
	if errs[1] >= errs[0] {
		t.Fatalf("calibration did not reduce error: %v", errs)
	}
	for r := 2; r < len(errs); r++ {
		if errs[r] > errs[r-1] {
			t.Fatalf("error rose in round %d: %v", r, errs)
		}
	}
}

// TestE8Runs is the wall-clock experiment as a smoke test: it runs and
// reports one row per round. What the rows say depends on the machine.
func TestE8Runs(t *testing.T) {
	tbl, err := E8Prediction(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if atof(t, row[1]) < 0 || atof(t, row[2]) < atof(t, row[1]) {
			t.Fatalf("mean/max error row %v", row)
		}
	}
}

func TestRegistryAndQuickMode(t *testing.T) {
	if len(All()) != 8 {
		t.Fatalf("suite has %d experiments", len(All()))
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	e, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E1" {
		t.Fatalf("table ID = %s", tbl.ID)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Header: []string{"a", "bb"}}
	tbl.Add("1", 2.5)
	tbl.Note("n=%d", 7)
	out := tbl.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "2.5", "note: n=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
