package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// end-to-end metrics with their bounds, so the bounds live in one place.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(modDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runChild runs one workload in a child process of this same binary
// and returns its result object.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, serverBin string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-server-bin", serverBin)
	// Output keeps the child's stderr (its detail block) out of the table
	// and attaches it to the error if the child fails.
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("%s seed %d: %v: %s", workload, seed, err, ee.Stderr)
		}
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last stdout line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// runSelfcheck runs the end-to-end suite as two alternating sets of the
// same code (A B A B ..., a fresh seed per pair) and holds the two sets'
// medians against each metric's own bound — the acceptance rule a later
// change will be judged by, applied to no change at all.
func runSelfcheck(ctx context.Context, bf *benchmarkFile, modDir string, pairs int, seconds float64, seed int64, serverBin string) error {
	if pairs < 3 {
		return errors.New("-pairs must be at least 3")
	}
	if serverBin == "" {
		// Build once for all children instead of once per child.
		tmp, err := os.MkdirTemp(filepath.Join(modDir, "out"), "selfcheck-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		if serverBin, err = buildServer(ctx, tmp); err != nil {
			return err
		}
	}
	failed := 0
	fmt.Printf("| workload | metric | median A | median B | spread A | spread B | \\|A-B\\|/A | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for p := 0; p < pairs; p++ {
			for set := 0; set < 2; set++ {
				res, err := runChild(ctx, wl.Name, seed+int64(p), seconds, serverBin)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s pair %d set %c done\n", wl.Name, p+1, 'A'+set)
			}
		}
		for _, decl := range bf.EndToEnd {
			a, b := median(sets[0][decl.Name]), median(sets[1][decl.Name])
			diff := math.Abs(a-b) / math.Abs(a)
			verdict := "ok"
			if diff > decl.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.4f | %.4f | %.3f | %s |\n",
				wl.Name, decl.Name, a, b, quartileSpread(sets[0][decl.Name]), quartileSpread(sets[1][decl.Name]),
				diff, decl.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs disagree between the two sets by more than their bound", failed)
	}
	return nil
}
