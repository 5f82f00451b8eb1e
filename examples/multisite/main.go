// Multisite demonstrates the wide-area side of VDCE: four sites whose
// Application Schedulers share one scheduling round (the AFG multicast
// of Fig. 2), Monitor daemons and Group Managers maintaining the
// resource databases, a host failure caught before scheduling — the
// Group Manager's echo timeout is a vote, and the failure detector
// confirms the death once the host has also gone silent — and the
// Application Controller rescheduling work off an overloaded machine.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vdce"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/trace"
)

func main() {
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{
			Sites: 4, GroupsPerSite: 2, HostsPerGroup: 3, Seed: 9,
		},
		StartDaemons:  true,
		MonitorPeriod: 50 * time.Millisecond,
		LoadThreshold: 0.85,
		// Dilation emulates host heterogeneity during execution, which
		// also gives the load watchdog a realistic window to act in.
		DilationScale: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	fmt.Println("sites:")
	for _, site := range env.TB.Sites {
		fmt.Printf("  %s (%d hosts)\n", site.Name, len(site.Hosts))
	}

	// Fail a host: the Group Manager's echo timeout votes, the failure
	// detector confirms the death after four silent monitor periods
	// (200 ms here) and marks the host down in the resource-performance
	// database.
	victim := env.TB.Sites[1].Hosts[0]
	fmt.Printf("\ninjecting failure on %s\n", victim.Name)
	victim.Fail()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := env.Sites[1].Repo.Resources.Host(victim.Name)
		if err != nil {
			log.Fatal(err)
		}
		if rec.Status == repository.HostDown {
			fmt.Printf("echo vote and failure detector confirmed %s down\n", victim.Name)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Schedule the LES across the surviving resources; the dead host is
	// automatically avoided.
	g, err := tasklib.BuildLinearEquationSolver(128, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = "" // the 4-site testbed mixes platforms
	}
	table, err := env.Schedule(g, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Overload the host chosen for Matrix_Inversion before execution so
	// the Application Controller's threshold fires and the task moves.
	var bully string
	for _, e := range table.Entries {
		if e.TaskName == "Matrix_Inversion" {
			bully = e.Hosts[0]
		}
	}
	if h, err := env.TB.Host(bully); err == nil {
		fmt.Printf("\ninjecting a 95%% contention burst on %s (runs Matrix_Inversion)\n", bully)
		h.InjectLoad(0.95)
	}

	res, err := env.Engine.Execute(context.Background(), g, table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== allocation across sites ===")
	fmt.Println(table)
	for _, e := range table.Entries {
		for _, h := range e.Hosts {
			if h == victim.Name {
				log.Fatalf("scheduler used the failed host %s", victim.Name)
			}
		}
	}
	fmt.Printf("makespan: %v, rescheduling requests: %d\n", res.Makespan, res.Rescheduled)

	residual := res.Outputs[g.Exits()[0]][0].(float64)
	fmt.Printf("residual: %.3g\n\n", residual)

	// Execution timeline (terminated attempts are marked with 'x').
	fmt.Print(trace.Gantt(trace.FromRuns(res.Runs), 72))

	// Group Manager statistics: filtered monitoring traffic.
	var recv, fwd int64
	for _, gm := range env.Groups {
		r, f, _ := gm.Stats()
		recv += r
		fwd += f
	}
	if recv > 0 {
		fmt.Printf("monitoring: %d samples taken, %d forwarded to the site repositories (%.0f%% filtered)\n",
			recv, fwd, 100*(1-float64(fwd)/float64(recv)))
	}
}
