package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload for one second, untraced and traced,
// and checks what must hold on any machine: the result's shape matches
// BENCHMARK.json name for name, every job was ok, and every span file is
// a forest whose children lie inside their parents. It asserts no
// timing.
func TestSmoke(t *testing.T) {
	mod, err := moduleDir()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(mod)
	if err != nil {
		t.Fatal(err)
	}
	declared := make([]string, len(bf.Workloads))
	for i, w := range bf.Workloads {
		declared[i] = w.Name
	}
	if !slices.Equal(declared, specNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", declared, specNames())
	}
	out := t.TempDir()
	var serverBin string
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			if sp.server {
				if testing.Short() {
					t.Skip("spawns a vdce-server built from source")
				}
				if serverBin, err = buildServer(context.Background(), out); err != nil {
					t.Fatal(err)
				}
			}
			for _, traced := range []bool{false, true} {
				// No lateness limit: under the race detector a job can take
				// ten times as long, and this test asserts no timing.
				res, err := run(context.Background(), runConfig{
					spec: sp, seed: 1, seconds: 1, trace: traced, okWithin: time.Hour,
					outDir: out, serverBin: serverBin,
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				decls := bf.EndToEnd
				if traced {
					decls = bf.PerLayer
				}
				checkResult(t, res, decls)
				if traced {
					checkForest(t, filepath.Join(out, "trace-"+sp.name+".json"))
				} else if v := res.Metrics["ok_frac"].Value; v != 1 {
					t.Errorf("ok_frac = %v, want 1", v)
				}
			}
		})
	}
}

// checkResult holds a result object against the declared metric list:
// the same names, the same units, and a run in which nothing failed.
func checkResult(t *testing.T, res *result, decls []metricDecl) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	// The object must survive the trip the driver puts it through.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		m, ok := back.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s declared in BENCHMARK.json but not reported", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(back.Metrics) != len(decls) {
		for name := range back.Metrics {
			if !slices.ContainsFunc(decls, func(d metricDecl) bool { return d.Name == name }) {
				t.Errorf("metric %s reported but not declared in BENCHMARK.json", name)
			}
		}
	}
}

// checkForest reads a span file and checks its structure.
func checkForest(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID <= 0 {
			t.Fatalf("span id %d duplicated or not positive", s.ID)
		}
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.EndUS < s.StartUS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			if s.Name != "client.job" {
				t.Errorf("root span %d is %s, want client.job", s.ID, s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		case p.ID >= s.ID:
			t.Errorf("span %d (%s): parent %d is not recorded before it", s.ID, s.Name, p.ID)
		case p.Job != s.Job:
			t.Errorf("span %d (%s): job %d under a parent of job %d", s.ID, s.Name, s.Job, p.Job)
		case s.StartUS < p.StartUS || s.EndUS > p.EndUS:
			t.Errorf("span %d (%s) [%d,%d] pokes out of parent %s [%d,%d]",
				s.ID, s.Name, s.StartUS, s.EndUS, p.Name, p.StartUS, p.EndUS)
		}
	}
	if roots == 0 {
		t.Error("no root span")
	}
}
