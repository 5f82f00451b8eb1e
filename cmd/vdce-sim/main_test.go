package main

import (
	"strings"
	"testing"

	"vdce/internal/experiments"
)

func TestRunProducesScheduleReport(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-family", "layered", "-tasks", "12", "-sites", "2", "-hosts", "2", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"workload", "Resource allocation table", "makespan"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunEveryPolicy(t *testing.T) {
	for _, pol := range experiments.Policies {
		policy := pol.Name
		t.Run(policy, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{"-family", "fft", "-tasks", "8", "-policy", policy, "-seed", "3"}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "Resource allocation table") {
				t.Errorf("policy %s produced no table", policy)
			}
		})
	}
}

func TestRunChaosScenarios(t *testing.T) {
	for _, scenario := range []string{"kill-quarter", "rolling-restart", "site-partition"} {
		t.Run(scenario, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{"-family", "layered", "-tasks", "10", "-sites", "2", "-hosts", "3",
				"-seed", "1", "-chaos", scenario}, &out)
			if err != nil {
				t.Fatal(err)
			}
			got := out.String()
			for _, want := range []string{
				"chaos scenario", "inject:", "-> suspect", "-> dead",
				"detector stats:", "recovery:", "Resource allocation table",
			} {
				if !strings.Contains(got, want) {
					t.Errorf("chaos output missing %q:\n%s", want, got)
				}
			}
		})
	}
}

// TestRunServerRestartScenario smoke-tests the control-plane fault
// scenario: kill a durable control plane mid-workload, restart it on
// the same store, recover every job, and drain the workload to done.
func TestRunServerRestartScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("restarts a full environment and drains a workload")
	}
	var out strings.Builder
	err := run([]string{"-sites", "2", "-hosts", "3", "-seed", "5", "-chaos", "server-restart"}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"killing control plane", "recovered", "re-admitted", "after drain",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("server-restart output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-family", "no-such-family"}, &out); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run([]string{"-policy", "no-such-policy", "-tasks", "4"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-tasks", "4", "-chaos", "no-such-scenario"}, &out); err == nil {
		t.Error("unknown chaos scenario accepted")
	}
}
