// Lineqsolver reproduces the paper's Fig. 1 end to end: the Linear
// Equation Solver application flow graph with the exact task properties
// the figure shows (LU_Decomposition parallel on two nodes reading
// matrix_A.dat; Matrix_Multiplication sequential with two dataflow
// inputs writing vector_X.dat), scheduled by the site scheduler and
// executed on the runtime. The residual check verifies the solve.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"vdce"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

func main() {
	n := flag.Int("n", 256, "matrix order")
	dot := flag.Bool("dot", false, "print the GraphViz DOT of the AFG")
	flag.Parse()

	g, err := tasklib.BuildLinearEquationSolver(*n, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Fig. 1: Linear Equation Solver application flow graph ===")
	fmt.Println(g.Summary())
	for _, task := range g.Tasks {
		if task.Name == "LU_Decomposition" || task.Name == "Matrix_Multiplication" {
			fmt.Println("TASK PROPERTIES WINDOW")
			fmt.Println(task.PropertiesWindow())
		}
	}
	if *dot {
		fmt.Println(g.DOT())
	}

	// The figure pins Matrix_Multiplication to a SUN Solaris machine; a
	// machine of that type must exist, so restrict the testbed's mix.
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{
			Sites: 2, HostsPerGroup: 4, Seed: 7,
			ArchOS: [][2]string{{"SUN", "Solaris"}, {"SUN", "SunOS"}},
		},
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
	fmt.Println("=== Resource allocation table ===")
	fmt.Println(table)

	exit := g.Exits()[0]
	residual := res.Outputs[exit][0].(float64)
	fmt.Printf("makespan: %v, reschedules: %d\n", res.Makespan, res.Rescheduled)
	fmt.Printf("solution residual ||Ax-b||_inf = %.3g  (solve %s)\n",
		residual, map[bool]string{true: "VERIFIED", false: "FAILED"}[residual < 1e-6])
}
