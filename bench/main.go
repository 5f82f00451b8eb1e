// Command bench is the repository's performance ledger: four paced,
// open-loop workloads (three against an in-process vdce.Environment, one
// against a spawned vdce-server over HTTP + SSE), each reporting the
// end-to-end metrics a user of the system sees, and — in a separate
// traced run — spans and per-layer metrics measured from outside the
// program's modules. README.md defines every metric and workload.
//
//	bench --workload c3i-stream --seed 1 --seconds 24 --trace 0
//	bench --workload server-sse --seed 1 --seconds 24 --trace 1
//	bench -selfcheck -pairs 3
//
// The result is one JSON object on the last line of standard output;
// everything else (detail block, budget table) goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	// okWithin is how long after its due time a job may finish and still
	// count as ok.
	okWithin time.Duration
	// outDir receives trace files and holds the run's temp directory.
	outDir string
	// serverBin is a prebuilt vdce-server; empty builds one into the
	// run's temp directory.
	serverBin string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(specNames(), "|"))
	seed := fs.Int64("seed", 1, "seed the graph data and the job mix derive from")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: spans, per-layer metrics and the budget table")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end suite as two alternating sets and compare their medians against the bounds")
	pairs := fs.Int("pairs", 3, "selfcheck: runs per set and workload")
	serverBin := fs.String("server-bin", os.Getenv("VDCE_SERVER_BIN"), "prebuilt vdce-server binary (default: build one into the run's temp dir)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	modDir, err := moduleDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	outDir := filepath.Join(modDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bf, err := readBenchmarkFile(modDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}

	// SIGINT/SIGTERM cancel the run; every exit path below then stops
	// the child server and removes the temp directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selfcheck {
		if err := runSelfcheck(ctx, bf, modDir, *pairs, *seconds, *seed, *serverBin); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		return 0
	}

	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *workload, strings.Join(specNames(), "|"))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	res, err := run(ctx, runConfig{
		spec: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, okWithin: defaultOKWithin,
		outDir: outDir, serverBin: *serverBin,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// run executes one workload once and returns its result object.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	tmp, err := os.MkdirTemp(cfg.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var d driver
	if cfg.spec.server {
		d, err = newServerDriver(ctx, cfg, tmp)
	} else {
		d, err = newInprocDriver(cfg)
	}
	if err != nil {
		return nil, err
	}
	defer d.close()

	if cfg.trace {
		return runTraced(ctx, cfg, d)
	}
	return runMeasured(ctx, cfg, d)
}

// moduleDir is the working directory, which must be the bench module's
// own (run.sh, go run . and go test all start there): out/ is created in
// it and vdce-server is built from it.
func moduleDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(data), "module vdce/bench\n") {
		return "", errors.New("run from bench/, or through bench/run.sh (go.mod of module vdce/bench not found)")
	}
	return wd, nil
}

// printDetail writes a run's explanatory block to stderr: never metrics,
// only what helps explain a bad run.
func printDetail(title string, kv map[string]any) {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "--- %s\n", title)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %v\n", k, kv[k])
	}
}
