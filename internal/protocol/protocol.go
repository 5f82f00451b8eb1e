// Package protocol defines the wire messages VDCE components exchange:
// host-selection requests between Application Schedulers (the AFG
// multicast of Fig. 2), monitoring and failure reports flowing from
// Group Managers to Site Managers, execution records closing the
// prediction feedback loop. Transport is Go's net/rpc over TCP. Data
// Manager channels carry inter-task payloads in their own framing,
// defined where it is used, in internal/exec.
package protocol

import (
	"time"

	"vdce/internal/core"
	"vdce/internal/repository"
)

// SiteServiceName is the rpc service name every VDCE server registers.
const SiteServiceName = "Site"

// HostSelectionRequest carries a JSON-encoded application flow graph to a
// remote Application Scheduler (Fig. 2 step 3, the AFG multicast).
type HostSelectionRequest struct {
	GraphJSON []byte
}

// HostSelectionResponse returns the site's host-selection output: the
// best machine(s) and predicted execution time per task (Fig. 2 step 5).
// Keys are task IDs.
type HostSelectionResponse struct {
	Site    string
	Choices map[int]core.HostChoice
}

// WorkloadBatch is a Group Manager's filtered workload report: only the
// hosts whose load changed considerably since the last report.
type WorkloadBatch struct {
	Site    string
	Group   string
	Samples []HostSample
}

// HostSample pairs a host with one monitor measurement.
type HostSample struct {
	Host   string
	Sample repository.WorkloadSample
}

// FailureNotice reports an echo-detected host failure.
type FailureNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// RecoveryNotice reports a host answering echoes again.
type RecoveryNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// ExecutionRecord carries a completed task execution back to the Site
// Manager, which updates the task-performance database.
type ExecutionRecord = repository.Execution

// Ack is the empty reply used by notification-style RPCs.
type Ack struct{}

// ResourceQuery selects hosts from the resource-performance database.
type ResourceQuery struct {
	// Group filters to one group when non-empty.
	Group string
	// UpOnly drops hosts marked down.
	UpOnly bool
}

// ResourceList is the query result.
type ResourceList struct {
	Hosts []repository.ResourceInfo
}
