// Quickstart: build a tiny application against the public vdce API,
// submit it to a two-site environment, which schedules and executes it,
// and print the resource allocation table.
package main

import (
	"context"
	"fmt"
	"log"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/testbed"
)

func main() {
	// A small environment: 2 sites x 4 hosts, everything in-process.
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 4, Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	// Build an application flow graph the way the Application Editor
	// would: generate a matrix, multiply it with itself, checksum the
	// product.
	g := afg.NewGraph("quickstart")
	gen := g.AddTask("Matrix_Generate", "matrix", 0, 1)
	mul := g.AddTask("Matrix_Multiplication", "matrix", 2, 1)
	sum := g.AddTask("Checksum", "util", 1, 1)
	must(g.SetProps(gen, afg.Properties{Args: map[string]string{"n": "64", "seed": "7"}}))
	must(g.SetProps(mul, afg.Properties{Mode: afg.Parallel, Nodes: 2}))
	must(g.Connect(gen, 0, mul, 0, 64*64*8))
	must(g.Connect(gen, 0, mul, 1, 64*64*8))
	must(g.Connect(mul, 0, sum, 0, 64*64*8))

	// Submit from site 0 with k = 1 nearest remote site, and wait for
	// the run.
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
	fmt.Printf("makespan: %v over %d task runs\n", res.Makespan, len(res.Runs))
	fmt.Printf("product checksum: %s\n", res.Outputs[sum][0].(string)[:16]+"...")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
