// Package sim evaluates resource allocation tables by discrete-event
// simulation: given an application flow graph, an allocation, and a
// network model, it computes when every task starts and finishes under
// two constraints — precedence (a task starts only after every parent's
// output has arrived) and host exclusivity (a host runs one task at a
// time; a parallel task occupies all its hosts). The simulated schedule
// length is the metric the paper's scheduler minimizes, and what the E2
// and E4 experiments report.
//
// Links are modeled with latency + bandwidth delay but without
// contention, matching the scheduler's own transfer-time estimate; host
// serialization, the first-order effect list scheduling manages, is
// exact.
package sim

import (
	"fmt"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
)

// TaskTimes records one task's simulated interval.
type TaskTimes struct {
	Task   afg.TaskID
	Start  time.Duration
	Finish time.Duration
}

// Result is the outcome of one simulation.
type Result struct {
	// Makespan is the schedule length: the latest task finish time.
	Makespan time.Duration
	// Times maps each task to its interval.
	Times map[afg.TaskID]TaskTimes
	// InterSiteBytes is the total payload crossing site boundaries.
	InterSiteBytes int64
	// InterSiteTransfers counts edges whose endpoints sat on different
	// sites.
	InterSiteTransfers int
}

// Run simulates table over g and net. Entries must be in topological
// order (core schedulers guarantee this; Validate enforces it). Tasks
// assigned to the same host execute in table order — the priority order
// the scheduler chose.
func Run(g *afg.Graph, table *core.AllocationTable, net *netmodel.Network) (*Result, error) {
	if err := table.Validate(g); err != nil {
		return nil, err
	}
	res := &Result{
		Times: make(map[afg.TaskID]TaskTimes, len(table.Entries)),
	}
	hostFree := make(map[string]time.Duration)
	siteOf := make(map[afg.TaskID]string, len(table.Entries))

	for _, e := range table.Entries {
		siteOf[e.Task] = e.Site
		// Data-ready time: every parent's finish plus its edge transfer.
		var dataReady time.Duration
		for _, edge := range g.InEdges(e.Task) {
			parent, ok := res.Times[edge.From]
			if !ok {
				return nil, fmt.Errorf("sim: parent %d of %d not simulated (table order broken)", edge.From, e.Task)
			}
			size := g.EdgeSize(edge)
			xfer, err := net.TransferTime(size, siteOf[edge.From], e.Site)
			if err != nil {
				return nil, err
			}
			if siteOf[edge.From] != e.Site {
				res.InterSiteBytes += size
				res.InterSiteTransfers++
			}
			if arr := parent.Finish + xfer; arr > dataReady {
				dataReady = arr
			}
		}
		// Host-ready time: all assigned hosts free.
		start := dataReady
		for _, h := range e.Hosts {
			if hostFree[h] > start {
				start = hostFree[h]
			}
		}
		finish := start + e.Predicted
		for _, h := range e.Hosts {
			hostFree[h] = finish
		}
		res.Times[e.Task] = TaskTimes{Task: e.Task, Start: start, Finish: finish}
		if finish > res.Makespan {
			res.Makespan = finish
		}
	}
	if err := checkInvariants(g, table, res, net); err != nil {
		return nil, err
	}
	return res, nil
}

// checkInvariants re-verifies the two scheduling invariants on the
// simulated timeline: precedence with transfer delays, and per-host
// mutual exclusion. A violation is a simulator bug, reported as an error
// so property tests catch it.
func checkInvariants(g *afg.Graph, table *core.AllocationTable, res *Result, net *netmodel.Network) error {
	siteOf := make(map[afg.TaskID]string, len(table.Entries))
	for _, e := range table.Entries {
		siteOf[e.Task] = e.Site
	}
	for _, edge := range g.Edges {
		p, c := res.Times[edge.From], res.Times[edge.To]
		xfer, err := net.TransferTime(g.EdgeSize(edge), siteOf[edge.From], siteOf[edge.To])
		if err != nil {
			return err
		}
		if c.Start < p.Finish+xfer {
			return fmt.Errorf("sim: precedence violated: %d starts %v before %d's data arrives %v",
				edge.To, c.Start, edge.From, p.Finish+xfer)
		}
	}
	// Host exclusivity: collect intervals per host and check overlap.
	type interval struct {
		start, finish time.Duration
		id            afg.TaskID
	}
	perHost := make(map[string][]interval)
	for _, e := range table.Entries {
		t := res.Times[e.Task]
		if t.Finish < t.Start {
			return fmt.Errorf("sim: task %d finishes before it starts", e.Task)
		}
		for _, h := range e.Hosts {
			perHost[h] = append(perHost[h], interval{t.Start, t.Finish, e.Task})
		}
	}
	for h, ivs := range perHost {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.start < b.finish && b.start < a.finish && a.finish != a.start && b.finish != b.start {
					return fmt.Errorf("sim: host %s runs tasks %d and %d concurrently", h, a.id, b.id)
				}
			}
		}
	}
	return nil
}
