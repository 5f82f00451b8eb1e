// Package core implements the paper's primary contribution: the VDCE
// Application Scheduler. It contains the two built-in algorithms of
// Section 3 — the Site Scheduler Algorithm (Fig. 2) and the Host
// Selection Algorithm (Fig. 3) — plus the baseline policies the
// evaluation harness compares against.
//
// The scheduler is distributed: every site runs its own Application
// Scheduler. The local site receives the application flow graph,
// multicasts it to its k nearest neighbor sites, gathers each site's
// host-selection output (best machine and predicted execution time per
// task), and then walks the ready-task set in level-priority order,
// placing each task on the site that minimizes predicted execution time
// plus input transfer time. The result is the resource allocation table
// handed to the Site Manager.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"vdce/internal/afg"
)

// HostChoice is one site's host-selection answer for one task: the best
// machine(s) within the site and the predicted execution time — exactly
// the "mapping information" each remote site sends back in Fig. 2 step 5.
type HostChoice struct {
	Site string `json:"site"`
	// Hosts has len > 1 for parallel tasks. It may alias the site's cached
	// ranking, as may the Placement.Hosts copied from it: read-only.
	Hosts     []string      `json:"hosts"`
	Predicted time.Duration `json:"predicted"`
	// Err is non-empty when the site has no eligible host for the task
	// (constraint, preference, or availability); such sites are skipped.
	Err string `json:"err,omitempty"`
}

// Selection is a full host-selection result: one choice per task,
// indexed by task ID. A choice with no hosts is a task the site cannot
// place.
type Selection []HostChoice

// SiteService is the scheduling interface one site exposes to another:
// run the Host Selection Algorithm over the site's own repository. The
// in-process implementation is LocalSite; the wire implementation lives
// in internal/control and carries the same semantics over RPC.
type SiteService interface {
	// SiteName returns the site's name (matching the network model).
	SiteName() string
	// HostSelection runs Fig. 3 over the site's resources for every task
	// in g.
	HostSelection(g *afg.Graph) (Selection, error)
}

// Placement is one row of the resource allocation table.
type Placement struct {
	Task      afg.TaskID    `json:"task"`
	TaskName  string        `json:"task_name"`
	Site      string        `json:"site"`
	Hosts     []string      `json:"hosts"`
	Predicted time.Duration `json:"predicted"`
	// TransferIn is the estimated time to move the task's dataflow inputs
	// from the sites its parents were placed on.
	TransferIn time.Duration `json:"transfer_in"`
	// Level is the task's list-scheduling priority at placement time.
	Level float64 `json:"level"`
}

// DuplicateHost returns a host the placement names more than once, or
// "". A machine runs one task at a time, so a placement that asks for
// one twice can never start.
func (p *Placement) DuplicateHost() string {
	for i, h := range p.Hosts {
		if slices.Contains(p.Hosts[:i], h) {
			return h
		}
	}
	return ""
}

// AllocationTable is the scheduler's output artifact: the paper's
// "resource allocation table ... generated and transferred to the Site
// Manager". Entries appear in assignment order, which is topological.
type AllocationTable struct {
	App     string      `json:"app"`
	Entries []Placement `json:"entries"`
}

// Placement returns the entry for the given task, or nil.
func (t *AllocationTable) Placement(id afg.TaskID) *Placement {
	for i := range t.Entries {
		if t.Entries[i].Task == id {
			return &t.Entries[i]
		}
	}
	return nil
}

// ScheduleLength returns the sum-free upper metric the paper's goal
// references (the actual schedule length comes from simulation or
// execution); here: the sum of the critical-path predicted times.
// Primarily a debugging aid; use sim.Run for the real metric.
func (t *AllocationTable) TotalPredicted() time.Duration {
	var sum time.Duration
	for _, e := range t.Entries {
		sum += e.Predicted
	}
	return sum
}

// String renders the table like the paper's allocation listings.
func (t *AllocationTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resource allocation table for %q (%d tasks)\n", t.App, len(t.Entries))
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "  [%2d] %-24s -> %s:%s  predict=%v transfer=%v\n",
			e.Task, e.TaskName, e.Site, strings.Join(e.Hosts, ","), e.Predicted, e.TransferIn)
	}
	return b.String()
}

// Validate checks that the table covers every task of g exactly once,
// every entry names at least one host and none twice, and the order is
// topological.
func (t *AllocationTable) Validate(g *afg.Graph) error {
	if len(t.Entries) != len(g.Tasks) {
		return fmt.Errorf("core: table has %d entries for %d tasks", len(t.Entries), len(g.Tasks))
	}
	pos := make([]int, len(g.Tasks)) // entry index + 1; 0 = not placed
	for i, e := range t.Entries {
		if g.Task(e.Task) == nil {
			return fmt.Errorf("core: entry %d references missing task %d", i, e.Task)
		}
		if pos[e.Task] != 0 {
			return fmt.Errorf("core: task %d placed twice", e.Task)
		}
		if len(e.Hosts) == 0 {
			return fmt.Errorf("core: task %d has no hosts", e.Task)
		}
		if h := e.DuplicateHost(); h != "" {
			return fmt.Errorf("core: task %d lists host %s twice", e.Task, h)
		}
		want := 1
		if task := g.Task(e.Task); task.Props.Mode == afg.Parallel {
			want = task.Props.Nodes
		}
		// A parallel-mode task may be demoted to a single host when its
		// library implementation is not parallelizable.
		if len(e.Hosts) != want && len(e.Hosts) != 1 {
			return fmt.Errorf("core: task %d has %d hosts, wants %d", e.Task, len(e.Hosts), want)
		}
		pos[e.Task] = i + 1
	}
	for _, e := range g.Edges {
		if g.Task(e.From) == nil || g.Task(e.To) == nil {
			return fmt.Errorf("core: edge %v references missing task", e)
		}
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("core: table not topological: task %d placed before parent %d", e.To, e.From)
		}
	}
	return nil
}

// Errors shared by the schedulers.
var (
	ErrNoEligibleSite = errors.New("core: no site can run task")
	ErrNoSites        = errors.New("core: scheduler has no sites")
)
