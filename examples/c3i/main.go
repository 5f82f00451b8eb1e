// C3i runs the command-and-control application from the paper's C3I
// task library: two radar feeds fused, smoothed, threat-scored, and
// reported — with the run's task timeline rendered as a Gantt chart.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"vdce"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/trace"
)

func main() {
	targets := flag.Int("targets", 96, "targets per sensor")
	flag.Parse()

	g, err := tasklib.BuildC3IPipeline(*targets, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.Summary())

	env, err := vdce.New(vdce.Config{
		Testbed:       testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 3},
		DilationScale: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	ctx := context.Background()
	job, err := env.Submit(ctx, g, vdce.WithHomeSite(0), vdce.WithMaxHosts(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	table, res := job.Table(), job.Result()
	fmt.Println(table)

	report := res.Outputs[g.Exits()[0]][0].(string)
	fmt.Println(report)
	fmt.Printf("makespan: %v\n\n", res.Makespan)

	// The application-performance view: one row per host, one span per
	// task run.
	fmt.Print(trace.Gantt(trace.FromRuns(res.Runs), 64))
}
